package gate

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// manyTaskBody is a request of n distinct tasks.
func manyTaskBody(n int) string {
	tasks := make([]string, n)
	for i := range tasks {
		tasks[i] = fmt.Sprintf(`{"name":"t%d","t_pm_only":2,"t_dram_only":0.8,"total_accesses":4e6,"footprint_pages":30}`, i)
	}
	return `{"tasks":[` + strings.Join(tasks, ",") + `]}`
}

// FuzzGateCacheMatchesReplica: whatever body a warmed the gate cache
// with, the gate answers body b as the replica itself does: the same
// status, and for a 200 the same bytes. The gate's replica and the one
// b is posted to directly are one cache-off serve.Service, so the
// replica's answers are its plans alone.
func FuzzGateCacheMatchesReplica(f *testing.F) {
	for _, b := range []string{bogusBody, revBody, altBody, fwdBody + "garbage", manyTaskBody(257)} {
		f.Add([]byte(fwdBody), []byte(b))
	}
	rep, sha := realReplica(f)
	g := testGate(f, Config{Backends: []string{rep.URL}, CacheEntries: 128})
	waitReady(f, g)
	waitConverged(f, g, sha)
	front := httptest.NewServer(g.Handler())
	f.Cleanup(front.Close)

	f.Fuzz(func(t *testing.T, a, b []byte) {
		doPlaceRaw(t, front.URL, "", string(a))
		viaGate, gateBody := doPlaceRaw(t, front.URL, "", string(b))
		direct, replicaBody := doPlaceRaw(t, rep.URL, "", string(b))
		if viaGate.StatusCode != direct.StatusCode {
			t.Fatalf("gate answered %d (%s=%q), the replica %d:\ngate:    %s\nreplica: %s",
				viaGate.StatusCode, CacheHeader, viaGate.Header.Get(CacheHeader), direct.StatusCode, gateBody, replicaBody)
		}
		if direct.StatusCode == http.StatusOK && !bytes.Equal(gateBody, replicaBody) {
			t.Fatalf("200 bodies differ:\ngate:    %s\nreplica: %s", gateBody, replicaBody)
		}
	})
}
