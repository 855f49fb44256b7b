package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of a live run, keyed by
// name. Throughput, latency percentiles and CPU per request are medians
// over the window's parts. The gated subset is what BENCHMARK.json
// bounds; the others (per request class over the whole window, error
// rate, sample counts) are printed for reading.
func endToEnd(lr *liveRun) (all map[string]metric, failed int) {
	all = map[string]metric{}
	var setups []float64
	for _, d := range lr.setups {
		setups = append(setups, d.Seconds())
	}
	all["setup_s"] = metric{median(setups), "s"}
	fmt.Fprintf(stdout, "setups (s): %.3f\n", setups)
	var rps, p50, p95, p99, cpu, own []float64
	for _, p := range lr.parts {
		lat := latencies(p.samples)
		ok := 0
		for _, s := range p.samples {
			if s.err == nil {
				ok++
			}
		}
		rps = append(rps, float64(ok)/p.elapsed.Seconds())
		p50 = append(p50, percentile(lat, 0.5))
		p95 = append(p95, percentile(lat, 0.95))
		p99 = append(p99, percentile(lat, 0.99))
		cpu = append(cpu, ratio(float64(p.cpu)/float64(time.Millisecond), float64(ok)))
		own = append(own, ratio(float64(p.own)/float64(time.Millisecond), float64(ok)))
	}
	fmt.Fprintf(stdout, "parts (throughput 1/s, p50 ms, p95 ms, p99 ms, cpu ms/req):")
	for i := range rps {
		fmt.Fprintf(stdout, "  [%.2f %.3f %.2f %.2f %.3f]", rps[i], p50[i], p95[i], p99[i], cpu[i])
	}
	fmt.Fprintln(stdout)
	all["throughput_rps"] = metric{median(rps), "1/s"}
	all["latency_p50_ms"] = metric{median(p50), "ms"}
	all["latency_p95_ms"] = metric{median(p95), "ms"}
	all["latency_p99_ms"] = metric{median(p99), "ms"}
	all["server_cpu_ms_per_req"] = metric{median(cpu), "ms"}
	all["server_rss_peak_mb"] = metric{float64(lr.hwm) / (1 << 20), "MiB"}
	all["bench_cpu_ms_per_req"] = metric{median(own), "ms"}

	samples := lr.samples()
	byClass := map[string][]sample{}
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s)
		if s.err != nil {
			failed++
		}
	}
	for _, c := range []string{classWalk, classSPARQL, classGovern} {
		if ss := byClass[c]; len(ss) > 0 {
			lat := latencies(ss)
			all[c+"_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
			all[c+"_p99_ms"] = metric{percentile(lat, 0.99), "ms"}
			all[c+"_requests"] = metric{float64(len(ss)), "count"}
		}
	}
	all["error_rate"] = metric{ratio(float64(failed), float64(len(samples))), "ratio"}
	return all, failed
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return out
}

// printTemplates writes request count and latency per request template.
func printTemplates(out io.Writer, samples []sample) {
	by := map[string][]float64{}
	for _, s := range samples {
		k := s.class + " " + s.label
		by[k] = append(by[k], float64(s.lat)/float64(time.Millisecond))
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(out, "per template (count, p50 ms, p99 ms):")
	for _, k := range keys {
		fmt.Fprintf(out, "  %-34s %6d %10.3f %10.3f\n", k, len(by[k]), percentile(by[k], 0.5), percentile(by[k], 0.99))
	}
}

// gatedEndToEnd are the end-to-end metrics BENCHMARK.json bounds: the
// ones every workload reports and that are never zero. The bounded tail
// is the 95th percentile: on a shared 2-core machine the 99th, which a
// few hundred rare events set, moved by up to 40% between runs of the
// same code, more than any bound allows; it is printed, per class too.
var gatedEndToEnd = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p95_ms",
	"server_cpu_ms_per_req", "server_rss_peak_mb"}

// layerDef is one per-layer metric with the end-to-end metric (and
// workload) it should move.
type layerDef struct {
	name, unit, better, moves string
}

var layerDefs = []layerDef{
	{"rest.self_ms", "ms", "lower", "sparql_p50_ms/sparql_p99_ms on metadata-sparql, walk_p50_ms on walk-evolution"},
	{"rest.resp_kb", "KiB", "lower", "sparql_p50_ms/sparql_p99_ms on metadata-sparql, walk_p50_ms on walk-evolution"},
	{"sparql.parse_ms", "ms", "lower", "sparql_p50_ms on metadata-sparql"},
	{"sparql.plan_ms", "ms", "lower", "sparql_p50_ms on metadata-sparql"},
	{"sparql.exec_ms", "ms", "lower", "sparql_p50_ms on metadata-sparql"},
	{"sparql.rows_out", "count", "lower", "sparql_p50_ms on metadata-sparql"},
	{"sparql.rows_in_per_row_out", "ratio", "lower", "sparql_p99_ms on metadata-sparql"},
	{"sparql.sort_ms", "ms", "lower", "sparql_p99_ms on metadata-sparql"},
	{"sparql.plan_cache_hit_ratio", "ratio", "higher", "sparql_p50_ms on metadata-sparql"},
	{"sparql.parallel_join_share", "ratio", "lower", "server_cpu_ms_per_req and sparql_p99_ms on metadata-sparql"},
	{"rdf.scan_ms", "ms", "lower", "sparql_p50_ms on metadata-sparql"},
	{"rdf.scan_rows", "count", "lower", "sparql_p50_ms on metadata-sparql"},
	{"rewrite.ms", "ms", "lower", "walk_p50_ms on walk-evolution and governance-loop"},
	{"rewrite.cqs", "count", "lower", "walk_p50_ms on walk-evolution and governance-loop"},
	{"rewrite.from_sparql_ms", "ms", "lower", "walk_p50_ms on walk-evolution and governance-loop"},
	{"federate.scatter_ms", "ms", "lower", "walk_p50_ms/walk_p99_ms on walk-evolution"},
	{"federate.drain_ms", "ms", "lower", "walk_p50_ms/walk_p99_ms on walk-evolution"},
	{"federate.rows_fetched_per_row_out", "ratio", "lower", "walk_p50_ms/walk_p99_ms on walk-evolution"},
	{"federate.fetches_per_walk", "count", "lower", "walk_p50_ms and server_cpu_ms_per_req on walk-evolution; correctness on governance-loop"},
	{"federate.cache_hit_ratio", "ratio", "higher", "walk_p50_ms and server_cpu_ms_per_req on walk-evolution; correctness on governance-loop"},
	{"federate.retries_per_walk", "count", "lower", "error_rate"},
	{"wrapper.fetch_ms", "ms", "lower", "walk_p50_ms on walk-evolution"},
	{"wrapper.fetch_kb", "KiB", "lower", "walk_p50_ms on walk-evolution"},
	{"wrapper.sample_ms", "ms", "lower", "govern_p50_ms on governance-loop, setup_s on metadata-sparql"},
	{"schema.extract_ms", "ms", "lower", "govern_p50_ms on governance-loop, setup_s on metadata-sparql"},
	{"release.register_ms", "ms", "lower", "govern_p50_ms/govern_p99_ms on governance-loop"},
	{"release.suggest_ms", "ms", "lower", "govern_p50_ms/govern_p99_ms on governance-loop"},
	{"release.drift_ms", "ms", "lower", "govern_p50_ms/govern_p99_ms on governance-loop"},
	{"release.write_kb", "KiB", "lower", "govern_p99_ms on governance-loop, setup_s on metadata-sparql"},
	{"bdi.define_mapping_ms", "ms", "lower", "govern_p50_ms on governance-loop, setup_s everywhere"},
	{"bdi.edit_ms", "ms", "lower", "govern_p50_ms on governance-loop, setup_s everywhere"},
	{"bdi.write_kb", "KiB", "lower", "govern_p50_ms on governance-loop, setup_s everywhere"},
	{"bdi.quads", "count", "lower", "base of the ratios above"},
	{"tdb.compactions", "count", "lower", "govern_p99_ms and walk_p99_ms on governance-loop"},
	{"tdb.compact_ms", "ms", "lower", "govern_p99_ms and walk_p99_ms on governance-loop"},
	{"tdb.wal_fsyncs_per_govern", "count", "lower", "govern_p99_ms and walk_p99_ms on governance-loop"},
	{"trace.overhead_frac", "ratio", "lower", "none (tracing cost of the replay)"},
}

// spanStats aggregates the replay's spans by name.
type spanStats struct {
	n          int
	dur, self  time.Duration
	rows, byts int64
}

func aggregate(spans []span) map[string]*spanStats {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*spanStats{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.dur += s.dur()
		st.self += selfTime(spans, i, children)
		st.rows += s.Rows
		st.byts += s.Bytes
	}
	return out
}

// perLayer computes the per-layer metrics from the replay's spans and
// counters and from the live run's /metrics scrape. A metric whose
// /metrics family is missing is left out and named in missing.
func perLayer(rp *replayer, lr *liveRun) (out map[string]metric, missing []string) {
	out = map[string]metric{}
	agg := aggregate(rp.tr.spans)
	st := func(name string) *spanStats {
		if s := agg[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	ms := func(d time.Duration, n int) float64 { return ratio(float64(d)/float64(time.Millisecond), float64(n)) }
	meanMS := func(name string) float64 { s := st(name); return ms(s.dur, s.n) }
	kb := func(b int64, n int) float64 { return ratio(float64(b)/1024, float64(n)) }
	set := func(name string, v float64) {
		for _, d := range layerDefs {
			if d.name == name {
				out[name] = metric{v, d.unit}
				return
			}
		}
		panic("undeclared per-layer metric " + name)
	}

	set("rest.self_ms", ms(rp.restWall-rp.plainWall, rp.reads))
	set("rest.resp_kb", kb(rp.restBytes, rp.reads))
	set("sparql.parse_ms", meanMS("sparql.parse"))
	set("sparql.plan_ms", meanMS("sparql.plan"))
	set("sparql.exec_ms", meanMS("sparql.exec"))
	set("sparql.rows_out", ratio(float64(rp.rowsOut), float64(rp.sparqls)))
	set("sparql.rows_in_per_row_out", ratio(float64(rp.opRowsIn), float64(rp.opRowsOut)))
	set("sparql.sort_ms", ms(rp.sortTime, rp.explains))
	set("rdf.scan_ms", ms(rp.scanTime, rp.explains))
	set("rdf.scan_rows", ratio(float64(rp.opScanRows), float64(rp.explains)))
	set("rewrite.ms", meanMS("rewrite"))
	set("rewrite.cqs", ratio(float64(rp.cqs), float64(rp.walks)))
	set("rewrite.from_sparql_ms", meanMS("rewrite.from_sparql"))
	sc := st("federate.scatter")
	set("federate.scatter_ms", ms(sc.self, sc.n))
	set("federate.drain_ms", meanMS("federate.drain"))
	f := st("wrapper.fetch")
	set("federate.rows_fetched_per_row_out", ratio(float64(f.rows), float64(rp.walkRowsOut)))
	// Fetch counts and bytes are what crossed the provider's socket.
	set("federate.fetches_per_walk", ratio(float64(rp.fetches), float64(rp.walks)))
	set("wrapper.fetch_ms", ms(f.dur, f.n))
	set("wrapper.fetch_kb", kb(rp.fetchBytes, int(rp.fetches)))
	set("wrapper.sample_ms", meanMS("wrapper.sample"))
	set("schema.extract_ms", meanMS("schema.extract"))
	set("release.register_ms", meanMS("release.register"))
	set("release.suggest_ms", meanMS("release.suggest"))
	set("release.drift_ms", meanMS("release.drift"))
	reg := st("release.register")
	set("release.write_kb", kb(reg.byts, reg.n))
	set("bdi.define_mapping_ms", meanMS("bdi.define_mapping"))
	set("bdi.edit_ms", meanMS("bdi.edit"))
	dm, ed := st("bdi.define_mapping"), st("bdi.edit")
	set("bdi.write_kb", kb(dm.byts+ed.byts, dm.n+ed.n))
	set("bdi.quads", float64(rp.sys.Ontology().Dataset().Len()))
	set("trace.overhead_frac", ratio(float64(rp.tracedWall-rp.plainWall), float64(rp.plainWall)))

	// Counters the server exports, as deltas over the live window.
	delta := func(name, match string) (float64, bool) {
		a, ok1 := family(lr.after, name, match)
		b, ok2 := family(lr.before, name, match)
		return a - b, ok1 && ok2
	}
	walks, govern := 0, 0
	for _, s := range lr.samples() {
		switch s.class {
		case classWalk:
			walks++
		case classGovern:
			govern++
		}
	}
	fromMetrics := func(name string, f func() (float64, bool)) {
		if v, ok := f(); ok {
			set(name, v)
		} else {
			missing = append(missing, name)
		}
	}
	fromMetrics("sparql.plan_cache_hit_ratio", func() (float64, bool) {
		h, ok1 := delta("mdm_sparql_plan_cache_total", `result="hit"`)
		m, ok2 := delta("mdm_sparql_plan_cache_total", `result="miss"`)
		return ratio(h, h+m), ok1 && ok2
	})
	fromMetrics("sparql.parallel_join_share", func() (float64, bool) {
		all, ok1 := delta("mdm_sparql_join_strategy_total", "")
		par, ok2 := delta("mdm_sparql_join_strategy_total", `strategy="morsel_parallel"`)
		return ratio(par, all), ok1 && ok2
	})
	fromMetrics("federate.cache_hit_ratio", func() (float64, bool) {
		h, ok1 := delta("mdm_federate_source_cache_hits_total", "")
		m, ok2 := delta("mdm_federate_source_cache_misses_total", "")
		return ratio(h, h+m), ok1 && ok2
	})
	fromMetrics("federate.retries_per_walk", func() (float64, bool) {
		r, ok := delta("mdm_federate_retries_total", "")
		return ratio(r, float64(walks)), ok
	})
	fromMetrics("tdb.compactions", func() (float64, bool) { return delta("mdm_tdb_compactions_total", "") })
	fromMetrics("tdb.compact_ms", func() (float64, bool) {
		s, ok1 := delta("mdm_tdb_compact_duration_seconds_sum", "")
		n, ok2 := delta("mdm_tdb_compact_duration_seconds_count", "")
		return ratio(s*1000, n), ok1 && ok2
	})
	fromMetrics("tdb.wal_fsyncs_per_govern", func() (float64, bool) {
		f, ok := delta("mdm_tdb_wal_fsyncs_total", "")
		return ratio(f, float64(govern)), ok
	})
	return out, missing
}

// printTable writes metrics as aligned "name value unit" lines.
func printTable(out io.Writer, title string, ms map[string]metric, note func(string) string) {
	fmt.Fprintln(out, title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", n, m.Value, m.Unit)
		if note != nil {
			line += "  " + note(n)
		}
		fmt.Fprintln(out, line)
	}
}

func finite(ms map[string]metric) error {
	for n, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	return nil
}

var stdout, stderr io.Writer = os.Stdout, os.Stderr
