package service

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecord() *jobRecord {
	return &jobRecord{
		ID: "a1b2c3",
		Spec: JobSpec{
			Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4,
			MemX: "verilog", Workers: 2, Priority: -3,
			DeadlineMS: 90_000, MaxCycles: 1 << 40, MaxForks: 7, MaxCSMStates: 11,
		},
		State:      StateQueued,
		Submitted:  1_722_000_000_000_000_001,
		Started:    1_722_000_000_000_000_002,
		Finished:   0,
		Error:      "",
		CacheKey:   "deadbeef",
		DesignHash: "cafe",
		Cached:     false,
		Resumable:  true,
		// An older record's engine slot: it must survive the round trip.
		legacyEngine: "kernel",
	}
}

func TestJobRecordRoundTrip(t *testing.T) {
	rec := sampleRecord()
	data := rec.encode()
	got, err := decodeJobRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, rec)
	}
	if !bytes.Equal(got.encode(), data) {
		t.Error("re-encode is not byte-identical")
	}
}

func TestDecodeJobRecordRejectsMalformed(t *testing.T) {
	good := sampleRecord().encode()
	cases := map[string][]byte{
		"empty":          nil,
		"short magic":    good[:4],
		"wrong magic":    append([]byte("SYMSIMJ9"), good[8:]...),
		"truncated half": good[:len(good)/2],
		"truncated tail": good[:len(good)-1],
		"trailing junk":  append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeJobRecord(data); !errors.Is(err, ErrJobRecordCorrupt) {
				t.Errorf("want ErrJobRecordCorrupt, got %v", err)
			}
		})
	}

	// Unknown state code and unknown flag bits are rejected explicitly.
	bad := append([]byte{}, good...)
	bad[len(bad)-1] = 0xFF // flags byte is last
	if _, err := decodeJobRecord(bad); !errors.Is(err, ErrJobRecordCorrupt) {
		t.Errorf("bad flags: want ErrJobRecordCorrupt, got %v", err)
	}
}

// Every single-bit flip of a valid record must either decode to something
// that re-encodes canonically or fail with ErrJobRecordCorrupt — never
// panic, never round-trip inconsistently.
func TestJobRecordBitFlips(t *testing.T) {
	good := sampleRecord().encode()
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte{}, good...)
			mut[i] ^= 1 << bit
			rec, err := decodeJobRecord(mut)
			if err != nil {
				if !errors.Is(err, ErrJobRecordCorrupt) {
					t.Fatalf("flip %d/%d: error %v does not wrap ErrJobRecordCorrupt", i, bit, err)
				}
				continue
			}
			if !bytes.Equal(rec.encode(), mut) {
				t.Fatalf("flip %d/%d: accepted input does not re-encode canonically", i, bit)
			}
		}
	}
}

func FuzzJobRecordRoundTrip(f *testing.F) {
	f.Add(sampleRecord().encode())
	f.Add([]byte(jobMagic))
	f.Add([]byte("SYMSIMJ9junk"))
	trunc := sampleRecord().encode()
	f.Add(trunc[:len(trunc)-3])
	for _, h := range legacyJobRecords {
		img, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeJobRecord(data)
		if err != nil {
			if !errors.Is(err, ErrJobRecordCorrupt) {
				t.Fatalf("error %v does not wrap ErrJobRecordCorrupt", err)
			}
			return
		}
		if !bytes.Equal(rec.encode(), data) {
			t.Fatal("accepted input does not re-encode byte-identically")
		}
	})
}

func TestStoreLayoutAndAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	if err := st.saveJob(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.writeResult(rec.ID, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.writeCache("k123", []byte(`{"cached":true}`)); err != nil {
		t.Fatal(err)
	}

	// A corrupt sibling record must not poison the scan.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "bad.job"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, errs := st.loadJobs()
	if len(errs) != 1 || !errors.Is(errs[0], ErrJobRecordCorrupt) {
		t.Errorf("errs = %v, want one ErrJobRecordCorrupt", errs)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], rec) {
		t.Errorf("loadJobs = %+v", recs)
	}

	if data, err := st.readResult(rec.ID); err != nil || string(data) != `{"ok":true}` {
		t.Errorf("readResult = %q, %v", data, err)
	}
	if data, ok, err := st.readCache("k123"); !ok || err != nil || string(data) != `{"cached":true}` {
		t.Errorf("readCache = %q, %v, %v", data, ok, err)
	}
	if _, ok, err := st.readCache("missing"); ok || err != nil {
		t.Errorf("cache miss reported as hit (ok=%v err=%v)", ok, err)
	}
	if st.hasCheckpoint(rec.ID) {
		t.Error("phantom checkpoint")
	}
	if err := st.atomicWrite(st.checkpointPath(rec.ID), []byte("ck")); err != nil {
		t.Fatal(err)
	}
	if !st.hasCheckpoint(rec.ID) {
		t.Error("checkpoint not seen")
	}
	st.removeCheckpoint(rec.ID)
	if st.hasCheckpoint(rec.ID) {
		t.Error("checkpoint survived removal")
	}

	// No temp litter after atomic writes.
	for _, sub := range []string{"jobs", "results", "cache", "ckpt"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".job" && filepath.Ext(e.Name()) != ".json" && filepath.Ext(e.Name()) != ".ckpt" {
				t.Errorf("unexpected file %s/%s", sub, e.Name())
			}
		}
	}
}

// loadJobs must reject a record whose embedded ID disagrees with its file
// name (a copied or renamed record would otherwise shadow another job).
func TestLoadJobsRejectsRenamedRecord(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	if err := os.WriteFile(filepath.Join(dir, "jobs", "other.job"), rec.encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, errs := st.loadJobs()
	if len(recs) != 0 || len(errs) != 1 {
		t.Errorf("recs=%v errs=%v, want rejection", recs, errs)
	}
}
