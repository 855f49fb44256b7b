// Command perfbench is MDM's end-to-end benchmark. It drives a live
// mdmd (built from the checkout) over loopback HTTP with one of three
// governance-shaped workloads, checks every answer against expectations
// computed from the generator's parameters, and prints the end-to-end
// metrics. With -trace 1 it also replays the same generated requests
// in-process with spans around each layer's public functions and
// prints the per-layer metrics.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 -mdmd PATH -build DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run builds its fixture on a fresh
// mdmd; setup_s is the median.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "walk-evolution, metadata-sparql or governance-loop")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = also run the traced in-process replay and print per-layer metrics")
	bin := flag.String("mdmd", "", "path of the mdmd binary")
	build := flag.String("build", ".bench_build", "scratch directory inside the checkout")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *build); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed uint64, seconds int, traced bool, bin, build string) error {
	if bin == "" {
		return fmt.Errorf("-mdmd is required")
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return err
	}
	dir, err := runDir(build, name, seed)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	prov, err := newProvider(w.sources)
	if err != nil {
		return err
	}
	defer prov.Close()

	nsetup := setupRepeats
	if traced {
		nsetup = 1
	}
	lr, err := runLive(bin, dir, w, seed, prov, seconds, nsetup)
	if err != nil {
		return err
	}
	e2e, failed := endToEnd(lr)
	samples := lr.samples()
	for _, s := range samples {
		if s.err != nil {
			fmt.Fprintf(stderr, "perfbench: failed %s request: %v\n", s.class, s.err)
			break
		}
	}
	fmt.Printf("workload %s  seed %d  clients %d  window %ds in %d parts  requests %d  failed %d\n",
		name, seed, w.cfg.clients, seconds, parts, len(samples), failed)
	fmt.Printf("mdmd flags: %v\n", w.cfg.flags())
	printTable(os.Stdout, "end-to-end (live mdmd, tracing off):", e2e, nil)
	printTemplates(os.Stdout, samples)

	res := result{Attempted: len(samples), Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		for _, n := range gatedEndToEnd {
			res.Metrics[n] = e2e[n]
		}
	} else {
		// The replay gets a fresh workload: the steward's counters and
		// sequence start over.
		rw, err := newWorkload(name, seed, seconds)
		if err != nil {
			return err
		}
		// The replay reads for half the window: each read runs three or
		// four passes, so this replays about as many requests as a part.
		rp, err := replayRun(dir, rw, seed, prov, time.Duration(seconds)*time.Second/2)
		if err != nil {
			return err
		}
		layers, missing := perLayer(rp, lr)
		rp.close()
		if err := dumpSpans(filepath.Join(build, "traces", fmt.Sprintf("%s-%d.json", name, seed)), rp.tr.spans); err != nil {
			return err
		}
		res.Attempted += rp.reads
		res.Failed += len(rp.failures)
		for _, err := range rp.failures {
			fmt.Fprintf(stderr, "perfbench: replay check failed: %v\n", err)
			break
		}
		for _, m := range missing {
			fmt.Fprintf(stderr, "perfbench: per-layer metric %s absent: its /metrics family is missing\n", m)
		}
		moves := map[string]string{}
		for _, d := range layerDefs {
			moves[d.name] = "moves " + d.moves
		}
		printTable(os.Stdout, fmt.Sprintf("per-layer (traced in-process replay of %d requests):", rp.reads), layers,
			func(n string) string { return moves[n] })
		res.Metrics = layers
	}
	if err := finite(res.Metrics); err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// dumpSpans writes the replay's spans out once the run is over.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
