package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"streamlake"
)

// TestClusterEndpointSingleNode: a single-node lake has no cluster
// plane, and the endpoint says so rather than inventing one.
func TestClusterEndpointSingleNode(t *testing.T) {
	e := newEnv(t)
	resp, body := e.do(t, "GET", "/v1/cluster", "root-token", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("single-node /v1/cluster: %d", resp.StatusCode)
	}
	if body["error"] == "" {
		t.Fatal("404 without an error envelope")
	}
}

// TestClusterEndpoint: a clustered lake reports membership, the
// leader, and per-node detail; the endpoint is admin-only.
func TestClusterEndpoint(t *testing.T) {
	lake, err := streamlake.Open(streamlake.Config{
		Nodes: 3, PLogCapacity: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	acl := NewACL()
	acl.Grant("root-token", "root", PermAdmin)
	acl.Grant("writer-token", "writer", PermProduce)
	ts := httptest.NewServer(New(lake, acl))
	t.Cleanup(ts.Close)
	e := &env{lake: lake, acl: acl, ts: ts}

	resp, _ := e.do(t, "GET", "/v1/cluster", "writer-token", nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("non-admin /v1/cluster: %d", resp.StatusCode)
	}

	resp, body := e.do(t, "GET", "/v1/cluster", "root-token", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster: %d", resp.StatusCode)
	}
	leader, ok := body["leader"].(float64)
	if !ok || leader < 0 {
		t.Fatalf("no leader in response: %v", body["leader"])
	}
	nodes, ok := body["nodes"].([]any)
	if !ok || len(nodes) != 3 {
		t.Fatalf("want 3 nodes, got %v", body["nodes"])
	}
	roles := map[string]int{}
	for _, raw := range nodes {
		n := raw.(map[string]any)
		if n["alive"] != true {
			t.Fatalf("fresh cluster has a dead node: %v", n)
		}
		roles[n["role"].(string)]++
	}
	if roles["leader"] != 1 {
		t.Fatalf("want exactly one leader, got roles %v", roles)
	}

	// Kill a follower, let detection commit, and check the endpoint
	// reflects the committed membership.
	cl := lake.Cluster()
	victim := (int(leader) + 1) % 3
	if err := cl.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		lake.Clock().Advance(2_000_000) // 2ms
		cl.Tick()
		if !cl.CurrentView().Alive[victim] {
			break
		}
	}
	_, body = e.do(t, "GET", "/v1/cluster", "root-token", nil)
	for _, raw := range body["nodes"].([]any) {
		n := raw.(map[string]any)
		if int(n["id"].(float64)) == victim {
			if n["alive"] == true || n["up"] == true {
				t.Fatalf("killed node still reported alive: %v", n)
			}
		}
	}
}

// TestClusterMembershipEndpoints: the join/remove admin endpoints run
// real membership changes, and every invalid transition maps onto the
// error envelope — conflicts (existing id, the leader, the voter floor)
// are 409, malformed ids 400.
func TestClusterMembershipEndpoints(t *testing.T) {
	lake, err := streamlake.Open(streamlake.Config{
		Nodes: 5, PLogCapacity: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	acl := NewACL()
	acl.Grant("root-token", "root", PermAdmin)
	acl.Grant("writer-token", "writer", PermProduce)
	ts := httptest.NewServer(New(lake, acl))
	t.Cleanup(ts.Close)
	e := &env{lake: lake, acl: acl, ts: ts}

	leader := lake.Cluster().Leader()
	follower := func(k int) int {
		// The k-th non-leader id in a fixed order, so removals below
		// never aim at the (stable, undisturbed) leader.
		for id, seen := 0, 0; ; id++ {
			if id != leader {
				if seen == k {
					return id
				}
				seen++
			}
		}
	}
	cases := []struct {
		name string
		path string
		node int
		want int
	}{
		{"join next id", "/v1/cluster/join", 5, http.StatusOK},
		{"join existing id", "/v1/cluster/join", 0, http.StatusConflict},
		{"join out of order", "/v1/cluster/join", 99, http.StatusBadRequest},
		{"remove the leader", "/v1/cluster/remove", leader, http.StatusConflict},
		{"remove unknown id", "/v1/cluster/remove", 99, http.StatusBadRequest},
		{"remove the joined node", "/v1/cluster/remove", 5, http.StatusOK},
		{"remove a founding follower", "/v1/cluster/remove", follower(0), http.StatusOK},
		{"remove a second follower", "/v1/cluster/remove", follower(1), http.StatusOK},
		{"remove below the voter floor", "/v1/cluster/remove", follower(2), http.StatusConflict},
	}
	for _, tc := range cases {
		resp, body := e.do(t, "POST", tc.path, "root-token", map[string]any{"node": tc.node})
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d (body %v)", tc.name, resp.StatusCode, tc.want, body)
		}
		if tc.want != http.StatusOK && body["error"] == "" {
			t.Fatalf("%s: non-OK response without an error envelope: %v", tc.name, body)
		}
		if tc.want == http.StatusOK && tc.path == "/v1/cluster/join" {
			if body["bound_bytes"] == nil {
				t.Fatalf("%s: join response missing the movement bound: %v", tc.name, body)
			}
			if float64c, ok := body["moved_bytes"].(float64); ok {
				if bound := body["bound_bytes"].(float64); float64c > bound {
					t.Fatalf("%s: moved %v over bound %v", tc.name, float64c, bound)
				}
			}
		}
	}

	// Non-admins cannot reshape the cluster.
	resp, _ := e.do(t, "POST", "/v1/cluster/join", "writer-token", map[string]any{"node": 6})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("non-admin join: %d", resp.StatusCode)
	}

	// The status JSON reflects the committed states: node 5 tombstoned,
	// and every node row carries the membership-state fields.
	_, body := e.do(t, "GET", "/v1/cluster", "root-token", nil)
	if got := body["removes"].(float64); got != 3 {
		t.Fatalf("status reports %v removes, want 3", got)
	}
	for _, raw := range body["nodes"].([]any) {
		n := raw.(map[string]any)
		for _, k := range []string{"joining", "leaving", "removed"} {
			if _, ok := n[k]; !ok {
				t.Fatalf("node row missing %q: %v", k, n)
			}
		}
		if int(n["id"].(float64)) == 5 && n["removed"] != true {
			t.Fatalf("removed node 5 not tombstoned in status: %v", n)
		}
	}
}
