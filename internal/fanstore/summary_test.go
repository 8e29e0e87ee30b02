package fanstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/prefetch"
)

// TestWriteSummary pins the one read-out: a snapshot in which every
// subsystem did something renders every line, exactly; the zero snapshot
// renders nothing.
func TestWriteSummary(t *testing.T) {
	reg := metrics.NewRegistry()
	for name, v := range map[string]int64{
		"fanstore.opens.local": 10, "fanstore.opens.remote": 6, "fanstore.opens.zerocopy": 2,
		"fanstore.decompresses": 14, "fanstore.cache.hits": 24, "fanstore.cache.misses": 16,
		"fanstore.cache.evictions": 3, "fanstore.cache.prefetched_opens": 5,
		"fanstore.cache.retained_opens": 4, "fanstore.cache.stage_refused": 1,
		"fanstore.bytes.remote": 4096, "fanstore.failovers": 1, "fanstore.fetch.batched": 2,
		"rpc.server.served": 9, "rpc.server.notfound": 1, "rpc.server.errors": 2,
		"rpc.client.calls": 8, "rpc.client.retries": 3, "rpc.client.timeouts": 1,
		"rebalance.bytes.moved": 1 << 20, "fanstore.map.refreshes": 4,
		"ec.degraded.reads": 17, "ec.repair.bytes": 8_000_000,
	} {
		reg.Counter(name).Add(v)
	}
	for name, v := range map[string]int64{
		"rpc.server.inservice": 4, "rebalance.partitions.pending": 2,
		"member.map.version": 5,
	} {
		reg.Gauge(name).Set(v)
	}
	for name, h := range map[string]struct {
		n int
		d time.Duration
	}{
		"fanstore.open.latency": {40, 100 * time.Microsecond}, "fanstore.fetch.latency": {6, 200 * time.Microsecond},
		"fanstore.decompress.latency": {14, 50 * time.Microsecond}, "rpc.server.service.latency": {12, 30 * time.Microsecond},
		"ec.reconstruct.latency": {2, 3 * time.Millisecond},
	} {
		for i := 0; i < h.n; i++ {
			reg.Histogram(name).Observe(h.d)
		}
	}
	const want = `opens: 40 total  cached=24 local=10 remote=6 zerocopy=2  decompressions=14
throughput: 20.0 files/s over 2s
open:        n=40 mean=100µs p50<=128µs p99<=128µs max<=128µs
fetch:       n=6 mean=200µs p50<=256µs p99<=256µs max<=256µs
decompress:  n=14 mean=50µs p50<=64µs p99<=64µs max<=64µs
rpc service: n=12 mean=30µs p50<=32µs p99<=32µs max<=32µs
cache: hit ratio 60.0%  evictions=3  prefetched opens=5 retained=4 refused=1
remote: 4096 B fetched  failovers=1  batched fetches=2
rpc: served=9 not-found=1 errors=2  peak in-service=4  calls=8 retries=3 timeouts=1
rebalance: 1048576 B moved  pending=2  map version=5  stale-map refreshes=4
ec: degraded reads=17  reconstruct p99=4.096ms  repaired=8000000 B (4.0 MB/s)
`
	var b strings.Builder
	WriteSummary(&b, reg.Snapshot(), 2*time.Second)
	if got := b.String(); got != want {
		t.Errorf("summary:\n%s\nwant:\n%s", got, want)
	}
	b.Reset()
	WriteSummary(&b, metrics.NewRegistry().Snapshot(), 2*time.Second)
	WriteSummary(&b, metrics.RegistrySnapshot{}, 0)
	if b.Len() != 0 {
		t.Errorf("the zero snapshot rendered:\n%s", b.String())
	}
}

// TestSummaryCountsEveryOpen: the total, and the files/s computed from
// it, count Open calls — not the producers of a cache miss, which is what
// opens.local + opens.remote count and what the report used to sum. Two
// opens of one file are two opens, on a rank's snapshot and merged.
func TestSummaryCountsEveryOpen(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.EM, 4, 1, 2<<10, nil)
	var snap metrics.RegistrySnapshot
	err := mpi.Run(1, func(c *mpi.Comm) error {
		node, err := Mount(c, bundle.Scatter, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		path := ownedPaths(t, bundle.Scatter[0])[0]
		for i := 0; i < 2; i++ { // the second open is a cache hit
			if _, err := node.ReadFile(path); err != nil {
				return err
			}
		}
		snap = node.Registry().Snapshot()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var rank strings.Builder
	WriteSummary(&rank, snap, time.Second)
	for _, want := range []string{"opens: 2 total  cached=1 local=1 remote=0", "throughput: 2.0 files/s"} {
		if !strings.Contains(rank.String(), want) {
			t.Errorf("rank summary lacks %q:\n%s", want, rank.String())
		}
	}
	merged := BuildClusterReport([]metrics.RegistrySnapshot{snap, snap}, ReportOptions{Elapsed: time.Second})
	for _, want := range []string{"opens: 4 total", "throughput: 4.0 files/s"} {
		if !strings.Contains(merged.String(), want) {
			t.Errorf("cluster report lacks %q:\n%s", want, merged.String())
		}
	}
}

// summaryNames returns every instrument name WriteSummary reads: the
// dotted string literals of its body, read from the source so the list
// cannot fall behind the function.
func summaryNames(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "report.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "WriteSummary" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, _ := strconv.Unquote(lit.Value); strings.Contains(s, ".") && !strings.ContainsAny(s, " %") {
					names = append(names, s)
				}
			}
			return true
		})
	}
	if len(names) < 30 {
		t.Fatalf("found only %d instrument names in WriteSummary: %q", len(names), names)
	}
	return names
}

// TestSummaryNamesAreRegistered mounts the node with everything on — an
// elastic ec(2,1) cluster, a plan scheduler — and checks that
// its registry holds every name WriteSummary reads, so renaming an
// instrument fails here instead of zeroing a line of every report.
func TestSummaryNamesAreRegistered(t *testing.T) {
	const world = 3
	bundle, _ := buildBundle(t, dataset.EM, 6, world, 2<<10, nil)
	names := summaryNames(t)
	err := mpi.Run(world, func(c *mpi.Comm) error {
		node, err := MountElastic(c, [][]byte{bundle.Scatter[c.Rank()]}, ElasticOptions{Options: Options{
			CacheBytes: 1 << 20,
			Redundancy: Redundancy{K: 2, M: 1},
		}})
		if err != nil {
			return err
		}
		defer node.Close()
		reg := node.Registry()
		prefetch.NewScheduler(node, &prefetch.Plan{}, prefetch.SchedOptions{Metrics: reg}).Stop()
		snap := reg.Snapshot()
		for _, name := range names {
			_, isCounter := snap.Counters[name]
			_, isGauge := snap.Gauges[name]
			_, isHist := snap.Histograms[name]
			if !isCounter && !isGauge && !isHist {
				t.Errorf("rank %d: WriteSummary reads %q, which the registry does not hold", c.Rank(), name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
