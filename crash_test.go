package mdm_test

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"mdm"
	"mdm/internal/relalg"
	"mdm/internal/schema"
	"mdm/internal/tdb"
	"mdm/internal/wrapper"
)

// crashAck is what the crashing child acknowledged before it was killed.
type crashAck struct {
	Quads    []string
	Releases []mdm.Release
	Walks    map[string]string
}

func ackOf(sys *mdm.System) crashAck {
	ack := crashAck{Releases: sys.ReleaseLog(), Walks: map[string]string{}}
	for _, q := range sys.Ontology().Dataset().Quads() {
		ack.Quads = append(ack.Quads, q.String())
	}
	for _, name := range sys.SavedWalks() {
		ack.Walks[name], _ = sys.SavedWalk(name)
	}
	return ack
}

// TestCrashRecovery: every facade mutation a persistent system
// acknowledged at SyncBatch survives SIGKILL without Close. The test
// re-executes its own binary as the child that writes and is killed;
// the parent then reopens the directory and compares the ontology
// quads, the release log field by field, the saved walks and the Seq
// of the next release with what the child acknowledged.
func TestCrashRecovery(t *testing.T) {
	if flag.Arg(0) == "crash-child" {
		crashChild(t, flag.Arg(1))
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashRecovery$", "--", "crash-child", dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var want crashAck
	acked := false
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "ACK "); ok {
			if err := json.Unmarshal([]byte(line), &want); err != nil {
				t.Fatal(err)
			}
			acked = true
			break
		}
	}
	_ = cmd.Process.Kill() // SIGKILL: no Close, no deferred flush
	_ = cmd.Wait()
	if !acked {
		t.Fatal("child exited without acknowledging its writes")
	}

	sys, err := mdm.OpenWith(dir, mdm.StoreOptions{Sync: tdb.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	got := ackOf(sys)
	if !reflect.DeepEqual(got.Quads, want.Quads) {
		t.Fatalf("ontology after crash differs:\n got %q\nwant %q", got.Quads, want.Quads)
	}
	if len(got.Releases) != 2 || len(got.Releases) != len(want.Releases) {
		t.Fatalf("release log after crash = %+v, want %+v", got.Releases, want.Releases)
	}
	for i, r := range got.Releases {
		w := want.Releases[i]
		if !r.At.Equal(w.At) {
			t.Errorf("release %d At = %v, want %v", i, r.At, w.At)
		}
		r.At, w.At = time.Time{}, time.Time{}
		if !reflect.DeepEqual(r, w) {
			t.Errorf("release %d = %+v, want %+v", i, r, w)
		}
	}
	if !reflect.DeepEqual(got.Walks, want.Walks) || len(got.Walks) != 1 {
		t.Fatalf("saved walks after crash = %v, want %v", got.Walks, want.Walks)
	}
	if sys.IRI("ex:Player") != sys.IRI("http://ex.org/Player") {
		t.Error("prefix binding lost in the crash")
	}
	if v := sys.Validate(); len(v) != 0 {
		t.Errorf("violations after crash: %v", v)
	}
	rel, err := sys.RegisterWrapper(wrapper.NewMem("w3", "players-api", []schema.Doc{
		{"id": relalg.Int(1), "fullName": relalg.String("A")},
	}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Seq != 3 {
		t.Fatalf("next release Seq after crash = %d, want 3", rel.Seq)
	}
}

// crashChild acknowledges a concept, a source, two releases of it, a
// mapping and a saved walk, prints what it acknowledged and waits to be
// killed.
func crashChild(t *testing.T, dir string) {
	sys, err := mdm.OpenWith(dir, mdm.StoreOptions{Sync: tdb.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(sys.BindPrefix("ex", "http://ex.org/"))
	check(sys.AddConcept("ex:Player", "Player"))
	check(sys.AddFeature("ex:playerId", "playerId"))
	check(sys.AddFeature("ex:playerName", "playerName"))
	check(sys.AttachFeature("ex:Player", "ex:playerId"))
	check(sys.AttachFeature("ex:Player", "ex:playerName"))
	check(sys.MarkIdentifier("ex:playerId"))
	check(sys.AddSource("players-api", "Players API"))
	for _, w := range []wrapper.Wrapper{
		wrapper.NewMem("w1", "players-api", []schema.Doc{{"id": relalg.Int(1), "pName": relalg.String("A")}}, nil),
		wrapper.NewMem("w2", "players-api", []schema.Doc{{"id": relalg.Int(1), "playerName": relalg.String("A")}}, nil),
	} {
		_, err := sys.RegisterWrapper(w)
		check(err)
	}
	check(sys.DefineMapping(mdm.Mapping{
		Wrapper: "w2",
		Subgraph: []mdm.Triple{
			mdm.T(sys.IRI("ex:Player"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:playerId")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:playerName")),
		},
		SameAs: map[string]mdm.Term{"id": sys.IRI("ex:playerId"), "playerName": sys.IRI("ex:playerName")},
	}))
	check(sys.SaveWalk("players", `{"select":[{"concept":"ex:Player","feature":"ex:playerName"}]}`))
	b, err := json.Marshal(ackOf(sys))
	check(err)
	fmt.Printf("ACK %s\n", b)
	time.Sleep(time.Minute) // the parent kills us long before this
	os.Exit(3)
}
