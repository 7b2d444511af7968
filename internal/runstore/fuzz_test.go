package runstore

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"bundler/internal/exp"
)

// FuzzStoreGet: a manifest file is outside bytes — a crash or another
// build may have left anything there. Whatever the file holds, Get
// reports a miss, never panics, unless the bytes decode to a manifest
// carrying this very key's hash; Load agrees with Get.
func FuzzStoreGet(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	e := fakeExp{name: "fuzz"}
	pt := exp.Point{Seed: 1, Params: exp.Params{"x": "1"}}
	key := KeyFor(e, pt)
	hash := key.Hash()
	path := s.path(hash)
	res, _ := e.Run(pt.Seed, pt.Params.Clone())
	s.Save(e, pt, res, time.Millisecond)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"hash":"not-the-hash"`))
	f.Add([]byte(`{"hash":"` + hash + `","result":{"metrics":7}}`))
	f.Add([]byte("null"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok := s.Get(key)
		if ok && m.Hash != hash {
			t.Fatalf("manifest with hash %q served for key %s", m.Hash, hash)
		}
		if _, lok := s.Load(e, pt); lok != ok {
			t.Fatalf("Get hit = %v but Load hit = %v", ok, lok)
		}
		if ok {
			if _, err := json.Marshal(m); err != nil {
				t.Fatalf("a hit does not re-encode: %v", err)
			}
		}
	})
}
