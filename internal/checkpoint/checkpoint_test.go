package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func newTestStore(t *testing.T, retain int) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir(), retain)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLatestRoundTrip(t *testing.T) {
	s := newTestStore(t, 0)
	want := State{
		Version:      1,
		RunID:        "run-1",
		Scheme:       "cr",
		N:            12,
		C:            3,
		Seed:         42,
		W:            8,
		Step:         17,
		Params:       Float64sToBytes([]float64{1.5, -2.25, 3.125}),
		LastLoss:     0.25,
		DecoderSeed:  42,
		DecoderDraws: 999,
		EventCursor:  123,
		RecordCursor: 17,
	}
	info, err := s.Save(want.Step, &want)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 17 || info.File == "" || info.Size == 0 {
		t.Fatalf("bad save info: %+v", info)
	}

	var got State
	linfo, err := s.Latest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if linfo.Step != 17 {
		t.Fatalf("Latest step = %d, want 17", linfo.Step)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if ps := BytesToFloat64s(got.Params); !reflect.DeepEqual(ps, []float64{1.5, -2.25, 3.125}) {
		t.Fatalf("params decode = %v", ps)
	}
}

func TestLatestPicksNewest(t *testing.T) {
	s := newTestStore(t, 10)
	for _, step := range []int{1, 5, 9} {
		if _, err := s.Save(step, &State{Step: step}); err != nil {
			t.Fatal(err)
		}
	}
	var got State
	info, err := s.Latest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 9 || got.Step != 9 {
		t.Fatalf("Latest = step %d (payload %d), want 9", info.Step, got.Step)
	}
}

func TestRetentionPrunes(t *testing.T) {
	s := newTestStore(t, 2)
	for step := 1; step <= 5; step++ {
		if _, err := s.Save(step, &State{Step: step}); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int{4, 5}) {
		t.Fatalf("retained steps = %v, want [4 5]", steps)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range entries {
		if e.Name() != manifestName {
			files++
		}
	}
	if files != 2 {
		t.Fatalf("dir holds %d checkpoint files, want 2", files)
	}
}

func TestLatestEmptyDir(t *testing.T) {
	s := newTestStore(t, 0)
	var got State
	if _, err := s.Latest(&got); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestSameStepOverwrite(t *testing.T) {
	s := newTestStore(t, 3)
	if _, err := s.Save(4, &State{Step: 4, LastLoss: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(4, &State{Step: 4, LastLoss: 2}); err != nil {
		t.Fatal(err)
	}
	steps, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int{4}) {
		t.Fatalf("steps = %v, want [4]", steps)
	}
	var got State
	if _, err := s.Latest(&got); err != nil {
		t.Fatal(err)
	}
	if got.LastLoss != 2 {
		t.Fatalf("got an outdated payload: %+v", got)
	}
}

// Corruption tests ---------------------------------------------------------

// corrupt truncates or mutates the latest checkpoint file and asserts the
// store falls back to the previous one, reporting the skip.
func TestRestoreSkipsTruncatedFile(t *testing.T) {
	s := newTestStore(t, 5)
	mustSave(t, s, 3)
	mustSave(t, s, 7)
	truncateFile(t, filepath.Join(s.Dir(), checkpointFileName(7)), 10)

	var skips []string
	s.SetSkipHook(func(file string, reason error) { skips = append(skips, file) })

	var got State
	info, err := s.Latest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 3 || got.Step != 3 {
		t.Fatalf("restored step %d, want fallback to 3", info.Step)
	}
	if len(skips) != 1 || skips[0] != checkpointFileName(7) {
		t.Fatalf("skip hook calls = %v, want exactly the truncated file", skips)
	}
}

// TestRestoreSkipsBadCRC flips payload bytes without breaking JSON syntax
// — only the CRC can catch this — and asserts fallback to the previous
// checkpoint.
func TestRestoreSkipsBadCRC(t *testing.T) {
	s := newTestStore(t, 5)
	mustSave(t, s, 3)
	if _, err := s.Save(7, &State{Step: 7, RunID: "genuine"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), checkpointFileName(7))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := []byte(string(data))
	replaced := false
	for i := 0; i+7 <= len(mutated); i++ {
		if string(mutated[i:i+7]) == "genuine" {
			copy(mutated[i:], "forgery")
			replaced = true
			break
		}
	}
	if !replaced {
		t.Fatal("marker not found in checkpoint file")
	}
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	skips := 0
	s.SetSkipHook(func(string, error) { skips++ })
	var got State
	info, err := s.Latest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 3 || skips == 0 {
		t.Fatalf("restored step %d with %d skips; want CRC to catch the mutation and fall back to 3", info.Step, skips)
	}
}

// TestRestoreTornManifest simulates a crash between writing a checkpoint
// file and renaming the manifest: the temp manifest exists, the real one
// is outdated (or gone). Restore must still find the newest valid file via
// the directory scan.
func TestRestoreTornManifest(t *testing.T) {
	s := newTestStore(t, 5)
	mustSave(t, s, 3)
	mustSave(t, s, 7)

	// Outdated manifest: rewind it to mention only step 3, leave step 7's
	// file on disk (as if the crash hit before the manifest rename).
	manifestPath := filepath.Join(s.Dir(), manifestName)
	if err := os.Remove(manifestPath); err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, 3) // rebuilds a manifest knowing only step 3
	// Leave a torn temp file around too.
	if err := os.WriteFile(manifestPath+".tmp-123", []byte("{\"version\":1,"), 0o644); err != nil {
		t.Fatal(err)
	}

	var got State
	info, err := s.Latest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 7 || got.Step != 7 {
		t.Fatalf("restored step %d, want 7 via directory scan", info.Step)
	}
}

func TestRestoreGarbageManifest(t *testing.T) {
	s := newTestStore(t, 5)
	mustSave(t, s, 5)
	if err := os.WriteFile(filepath.Join(s.Dir(), manifestName), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	skips := 0
	s.SetSkipHook(func(string, error) { skips++ })
	var got State
	info, err := s.Latest(&got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 5 {
		t.Fatalf("restored step %d, want 5", info.Step)
	}
	if skips == 0 {
		t.Fatal("garbage manifest should be reported via the skip hook")
	}
}

func TestRestoreAllCorrupt(t *testing.T) {
	s := newTestStore(t, 5)
	mustSave(t, s, 1)
	mustSave(t, s, 2)
	for _, step := range []int{1, 2} {
		truncateFile(t, filepath.Join(s.Dir(), checkpointFileName(step)), 5)
	}
	var got State
	if _, err := s.Latest(&got); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint (and no panic)", err)
	}
}

// Lease tests --------------------------------------------------------------

func TestLeaseLifecycle(t *testing.T) {
	s := newTestStore(t, 0)
	if _, err := s.ReadLease(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("fresh dir lease err = %v, want ErrNotExist", err)
	}
	if err := s.WriteLease("master-1", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	l, err := s.ReadLease()
	if err != nil {
		t.Fatal(err)
	}
	if l.Holder != "master-1" || l.TTL != 100*time.Millisecond {
		t.Fatalf("lease = %+v", l)
	}
	if l.Expired(time.Now()) {
		t.Fatal("fresh lease reports expired")
	}
	if !l.Expired(time.Now().Add(200 * time.Millisecond)) {
		t.Fatal("lease not expired after TTL elapsed")
	}
	if err := s.ReleaseLease(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadLease(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("after release err = %v, want ErrNotExist", err)
	}
	// Releasing twice is fine.
	if err := s.ReleaseLease(); err != nil {
		t.Fatal(err)
	}
}

// Helpers ------------------------------------------------------------------

func mustSave(t *testing.T, s *Store, step int) {
	t.Helper()
	if _, err := s.Save(step, &State{Step: step}); err != nil {
		t.Fatal(err)
	}
}

func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}
