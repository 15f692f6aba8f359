package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func ckptFiles(t *testing.T, s *Store) []string {
	t.Helper()
	ents, err := os.ReadDir(s.ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestCheckpointRoundTripAndGC(t *testing.T) {
	s := mustOpen(t, testOpts(t, t.TempDir(), nil))
	defer s.Close()

	if err := s.WriteCheckpoint("alpha", 10, []byte("state at 10")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint("beta", 3, []byte("beta state")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint("alpha", 25, []byte("state at 25")); err != nil {
		t.Fatal(err)
	}

	latest, skipped, err := s.LatestCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	if c := latest["alpha"]; c.Seq != 25 || string(c.Payload) != "state at 25" {
		t.Fatalf("alpha checkpoint: %+v", c)
	}
	if c := latest["beta"]; c.Seq != 3 || string(c.Payload) != "beta state" {
		t.Fatalf("beta checkpoint: %+v", c)
	}
	// GC removed alpha's seq-10 file.
	for _, name := range ckptFiles(t, s) {
		if strings.Contains(name, fmt.Sprintf("%016x", 10)) {
			t.Fatalf("stale checkpoint survived gc: %s", name)
		}
	}
}

func TestCheckpointSessionNameEscaping(t *testing.T) {
	s := mustOpen(t, testOpts(t, t.TempDir(), nil))
	defer s.Close()
	// Hostile session IDs must not escape the ckpt directory or collide.
	ids := []string{"../../etc/passwd", "a/b", "a b", "x%2F", "plain-1"}
	for i, id := range ids {
		if err := s.WriteCheckpoint(id, uint64(i+1), []byte(id)); err != nil {
			t.Fatalf("%q: %v", id, err)
		}
	}
	for _, name := range ckptFiles(t, s) {
		if strings.Contains(name, "/") {
			t.Fatalf("checkpoint name contains a path separator: %q", name)
		}
	}
	latest, _, err := s.LatestCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(latest) != len(ids) {
		t.Fatalf("got %d sessions, want %d: %v", len(latest), len(ids), latest)
	}
	for i, id := range ids {
		if c := latest[id]; c.Seq != uint64(i+1) || string(c.Payload) != id {
			t.Fatalf("%q round trip: %+v", id, c)
		}
	}
}

func TestCheckpointInvalidFilesSkipped(t *testing.T) {
	s := mustOpen(t, testOpts(t, t.TempDir(), nil))
	defer s.Close()
	if err := s.WriteCheckpoint("good", 5, []byte("valid payload")); err != nil {
		t.Fatal(err)
	}

	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(s.ckptDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A torn temp file (crash before rename) is invisible, not an error.
	write(filepath.Join("tmp", ckptName("good", 6)), "rimckpt v1 sess")
	// Damaged payload: wrong CRC.
	write(ckptName("bad1", 1), "rimckpt v1 session=bad1 seq=1 len=3 crc=00000000\nxyz")
	// Payload cut short.
	write(ckptName("bad2", 2), "rimckpt v1 session=bad2 seq=2 len=100 crc=00000000\nshort")
	// Header/name mismatch.
	write(ckptName("bad3", 3), "rimckpt v1 session=other seq=3 len=0 crc=00000000\n")
	// Unparseable name.
	write("garbage.ckpt", "rimckpt v1 session=g seq=1 len=0 crc=00000000\n")

	latest, skipped, err := s.LatestCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(latest) != 1 || latest["good"].Seq != 5 {
		t.Fatalf("latest: %+v", latest)
	}
	if len(skipped) != 4 {
		t.Fatalf("skipped %d files, want 4: %v", len(skipped), skipped)
	}
}

func TestCheckpointCrashMidWriteInvisible(t *testing.T) {
	// A power cut anywhere inside WriteCheckpoint must leave either the
	// complete new checkpoint or only the old state — never a half file
	// that recovery trusts.
	payload := []byte("the full checkpoint payload, long enough to tear")
	for budget := int64(0); budget <= int64(len(payload)+64); budget += 3 {
		dir := t.TempDir()
		ffs := NewFaultFS(OSFS{})
		s, err := Open(testOpts(t, dir, func(o *Options) { o.FS = ffs }))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCheckpoint("s", 1, []byte("old state")); err != nil {
			t.Fatal(err)
		}
		ffs.CrashAfterBytes(budget)
		_ = s.WriteCheckpoint("s", 2, payload) // may or may not fail: power cut

		s2 := mustOpen(t, testOpts(t, dir, nil))
		latest, _, err := s2.LatestCheckpoints()
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		c, ok := latest["s"]
		if !ok {
			t.Fatalf("budget %d: old checkpoint lost", budget)
		}
		switch c.Seq {
		case 1:
			if string(c.Payload) != "old state" {
				t.Fatalf("budget %d: old checkpoint damaged: %q", budget, c.Payload)
			}
		case 2:
			if string(c.Payload) != string(payload) {
				t.Fatalf("budget %d: new checkpoint incomplete: %q", budget, c.Payload)
			}
		default:
			t.Fatalf("budget %d: unexpected seq %d", budget, c.Seq)
		}
		s2.Close()
	}
}

func TestDeleteCheckpoints(t *testing.T) {
	s := mustOpen(t, testOpts(t, t.TempDir(), nil))
	defer s.Close()
	if err := s.WriteCheckpoint("keep", 1, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint("drop", 1, []byte("d1")); err != nil {
		t.Fatal(err)
	}
	// A stale temp file from a crashed checkpoint of the dropped session.
	stale := filepath.Join(s.ckptDir, "tmp", ckptName("drop", 9))
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteCheckpoints("drop"); err != nil {
		t.Fatal(err)
	}
	latest, _, err := s.LatestCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := latest["drop"]; ok {
		t.Fatal("dropped session still has a checkpoint")
	}
	if _, ok := latest["keep"]; !ok {
		t.Fatal("unrelated session's checkpoint deleted")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived delete: %v", err)
	}
	for _, name := range ckptFiles(t, s) {
		if strings.Contains(name, "drop") {
			t.Fatalf("file for dropped session survived: %s", name)
		}
	}
}

func TestParseCkptName(t *testing.T) {
	for _, tc := range []struct {
		name string
		sess string
		seq  uint64
		ok   bool
	}{
		{ckptName("abc", 7), "abc", 7, true},
		{ckptName("a-b-c", 1<<33), "a-b-c", 1 << 33, true},
		{"noseq.ckpt", "", 0, false},
		{"a-00ff.ckpt", "", 0, false}, // seq not 16 digits
		{"a-000000000000000g.ckpt", "", 0, false},
		{"plain.wal", "", 0, false},
	} {
		sess, seq, ok := parseCkptName(tc.name)
		if ok != tc.ok || sess != tc.sess || seq != tc.seq {
			t.Errorf("parseCkptName(%q) = %q, %d, %v; want %q, %d, %v",
				tc.name, sess, seq, ok, tc.sess, tc.seq, tc.ok)
		}
	}
}
