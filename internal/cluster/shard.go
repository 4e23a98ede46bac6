// Master-side support for the dim-sharded gather: lane attachment and the
// per-registration sub-frame assembler. A binaryv2 worker splits each step's
// gradient into contiguous (offset, len) spans, one per lane connection;
// recvFrame asks the assembler to reserve the destination span before
// the payload bytes are read and reads the socket straight into the step's
// gather buffer at the offset (no reassembly copy); the reader commits the
// span, and the step surfaces as a whole-vector arrival with the last one.
package cluster

import (
	"sync"

	"isgc/internal/events"
)

// shardWindowMin is the fewest in-flight steps an assembler keeps before
// evicting stale ones; the staleness window widens it so foldable
// stragglers are not thrown away mid-reassembly.
const shardWindowMin = 3

// grantShards resolves a worker's proposed lane count against the
// master's cap: 0 caps at the protocol maximum, anything else at
// min(proposal, cap). The result is always ≥ 1.
func grantShards(proposed, cap int) int {
	if proposed < 1 {
		proposed = 1
	}
	if proposed > maxGatherShards {
		proposed = maxGatherShards
	}
	if cap > 0 && proposed > cap {
		proposed = cap
	}
	return proposed
}

// shardAssembler reassembles one worker's gradient sub-frames into whole
// vectors: the payloadSink of a sharded registration's primary connection
// and of every lane attached to it, all state behind its mutex. It lives and
// dies with its registration (a lane lost mid-payload takes the primary
// down), so nothing a cut left reserved can collide with the re-upload.
type shardAssembler struct {
	mu     sync.Mutex
	window int // in-flight steps kept before eviction
	newest int
	steps  map[int]*shardBuf
	// vecs supplies the gather buffers; only its dim is a valid total.
	vecs *vecPool
	// onReject counts protocol violations (overlapping spans, total
	// mismatch) — the sub-frame flavor of the malformed-gradient counter.
	onReject func(step, offset, count, total int)
}

// shardBuf is one step's gather buffer under reassembly.
type shardBuf struct {
	buf   []float64
	got   int      // float64 words committed so far
	spans [][2]int // reserved (offset, len) intervals, for overlap checks
}

// reserve maps an incoming sub-frame to the destination slice its payload is
// read into, or declines with nil (a sharded connection carries gradients
// only). The worker id claimed in the frame is ignored — the assembler is
// bound to the authenticated connection's id.
func (a *shardAssembler) reserve(fh frameHeader) []float64 {
	if fh.kind != MsgGradient {
		return nil
	}
	step, offset, count, total := fh.step, fh.offset, fh.dim, fh.total
	a.mu.Lock()
	defer a.mu.Unlock()
	if total != a.vecs.dim || offset+count > total {
		a.reject(step, offset, count, total)
		return nil
	}
	sb := a.steps[step]
	if sb == nil {
		if step > a.newest {
			a.newest = step
		}
		// Evict steps that fell out of the in-flight window: their missing
		// spans are never coming (the worker sends lanes step by step), and
		// an unbounded map would leak on a perpetually straggling lane. A
		// reader may still be filling one, so their buffers go to the GC.
		for s := range a.steps {
			if s <= a.newest-a.window {
				delete(a.steps, s)
			}
		}
		sb = &shardBuf{buf: a.vecs.get()}
		a.steps[step] = sb
	}
	for _, sp := range sb.spans {
		if offset < sp[0]+sp[1] && sp[0] < offset+count {
			a.reject(step, offset, count, total)
			return nil
		}
	}
	sb.spans = append(sb.spans, [2]int{offset, count})
	return sb.buf[offset : offset+count]
}

func (a *shardAssembler) reject(step, offset, count, total int) {
	if a.onReject != nil {
		a.onReject(step, offset, count, total)
	}
}

// commit records a received sub-frame and returns the completed vector
// once every element has landed; ownership of the buffer transfers to
// the caller on completion. A commit for an evicted step reports not-done
// (its reserved span was read into an orphaned buffer, harmlessly).
func (a *shardAssembler) commit(e *Envelope) ([]float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sb := a.steps[e.Step]
	if sb == nil || len(sb.buf) != e.Total {
		return nil, false
	}
	sb.got += len(e.Coded)
	if sb.got < len(sb.buf) {
		return nil, false
	}
	delete(a.steps, e.Step)
	return sb.buf, true
}

// newShardAssembler returns the assembler of one registration of worker id.
func (m *Master) newShardAssembler(id int) *shardAssembler {
	return &shardAssembler{window: max(m.cfg.Staleness+2, shardWindowMin), newest: -1,
		steps: make(map[int]*shardBuf), vecs: &m.vecs,
		onReject: func(step, offset, count, total int) {
			m.malformed.Add(1)
			m.cfg.Metrics.markMalformed()
			m.cfg.Events.Warn("master.malformed_subframe", "gradient sub-frame rejected before decode",
				step, id, events.Fields{"offset": offset, "count": count, "total": total})
		}}
}

// attachLane joins one extra gather-lane connection to an already
// registered binaryv2 worker. The lane hello names the lane index and the
// master generation it registered under; a lane for a dead, unsharded, or
// previous-life registration is refused by closing it — the worker's
// dialLanes then fails as a unit and the whole registration retries.
func (m *Master) attachLane(c *conn, hello *Envelope, readers *sync.WaitGroup) {
	id := hello.Worker
	m.mu.Lock()
	ws := m.workers[id]
	masterGen := m.generation
	done := m.done
	ok := !done && ws != nil && ws.alive && ws.c.wireV2 && hello.Gen == masterGen &&
		hello.Shard >= 1 && hello.Shard < maxGatherShards
	gen := -1
	var asm *shardAssembler
	if ok {
		gen, asm = ws.gen, ws.asm
	}
	m.mu.Unlock()
	if !ok {
		if done {
			_ = c.send(&Envelope{Kind: MsgJobGone})
		}
		_ = c.close()
		return
	}
	if err := c.send(&Envelope{Kind: MsgHello, Worker: id, Wire: WireBinary2, Shard: hello.Shard, Gen: masterGen}); err != nil {
		_ = c.close()
		return
	}
	c.sink = asm.reserve
	c.upgrade(true)
	// Register the lane on the generation it validated against: a rejoin
	// that raced in installs a fresh workerState this lane must not join.
	m.mu.Lock()
	cur := m.workers[id]
	attached := cur != nil && cur.gen == gen && cur.alive
	if attached {
		cur.lanes = append(cur.lanes, c)
	}
	m.mu.Unlock()
	if !attached {
		_ = c.close()
		return
	}
	m.cfg.Metrics.markShardLane()
	m.cfg.Events.Debug("master.lane_attached", "gather lane attached", events.NoStep, id,
		events.Fields{"lane": hello.Shard, "generation": gen})
	readers.Add(1)
	go m.readFrom(id, gen, c, asm, true, readers)
}
