package release_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/release"
	"mdm/internal/schema"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

func sig(w string, attrs ...string) schema.Signature {
	s := schema.Signature{Wrapper: w}
	for _, a := range attrs {
		typ := relalg.TypeString
		if strings.HasSuffix(a, "#i") {
			a = strings.TrimSuffix(a, "#i")
			typ = relalg.TypeInt
		}
		s.Attributes = append(s.Attributes, schema.Attribute{Name: a, Type: typ})
	}
	return s
}

func TestDiffAddRemove(t *testing.T) {
	old := sig("w", "id#i", "name", "height")
	new := sig("w", "id#i", "name", "height", "position")
	changes := release.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != release.AttributeAdded || changes[0].Attribute != "position" {
		t.Fatalf("changes = %v", changes)
	}
	if release.IsBreaking(changes) {
		t.Error("pure addition must be non-breaking")
	}

	changes = release.Diff(new, old)
	if len(changes) != 1 || changes[0].Kind != release.AttributeRemoved {
		t.Fatalf("changes = %v", changes)
	}
	if !release.IsBreaking(changes) {
		t.Error("removal must be breaking")
	}
}

func TestDiffRenameHeuristic(t *testing.T) {
	old := sig("w", "id#i", "pName")
	new := sig("w", "id#i", "fullName")
	changes := release.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != release.AttributeRenamed {
		t.Fatalf("changes = %v", changes)
	}
	if changes[0].Attribute != "pName" || changes[0].NewName != "fullName" {
		t.Fatalf("rename = %v", changes[0])
	}
	if !changes[0].Breaking() {
		t.Error("rename must be breaking")
	}
	// Equally-similar same-type additions tie and must NOT be a rename.
	new2 := sig("w", "id#i", "xName", "yName")
	changes = release.Diff(old, new2)
	var renames, removed, added int
	for _, c := range changes {
		switch c.Kind {
		case release.AttributeRenamed:
			renames++
		case release.AttributeRemoved:
			removed++
		case release.AttributeAdded:
			added++
		}
	}
	if renames != 0 || removed != 1 || added != 2 {
		t.Errorf("ambiguous rename mis-paired: %v", changes)
	}
}

func TestDiffTypeChange(t *testing.T) {
	old := sig("w", "id#i", "height")
	new := sig("w", "id#i", "height#i")
	changes := release.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != release.TypeChanged {
		t.Fatalf("changes = %v", changes)
	}
	if changes[0].OldType != "string" || changes[0].NewType != "int" {
		t.Errorf("types = %v", changes[0])
	}
	if !release.IsBreaking(changes) {
		t.Error("type change must be breaking")
	}
}

func TestDiffIdentical(t *testing.T) {
	s := sig("w", "a", "b#i")
	if got := release.Diff(s, s); len(got) != 0 {
		t.Errorf("identical diff = %v", got)
	}
}

func TestManagerReleaseLog(t *testing.T) {
	f := usecase.MustNew()
	// Fresh ontology-side source for manager-driven registration.
	mgr := release.NewManager(f.Ont, f.Reg)
	fixed := time.Date(2018, 3, 26, 10, 0, 0, 0, time.UTC) // EDBT 2018 day 1
	mgr.Now = func() time.Time { return fixed }

	if err := f.Ont.AddDataSource("weather-api", "Weather API"); err != nil {
		t.Fatal(err)
	}
	w1 := wrapper.NewMem("weather-v1", "weather-api", nil, sig("weather-v1", "id#i", "temp", "city").Attributes)
	rel1, err := mgr.Register(w1)
	if err != nil {
		t.Fatal(err)
	}
	if rel1.Kind != release.NewSource || rel1.Seq != 1 || rel1.Supersedes != "" {
		t.Fatalf("rel1 = %+v", rel1)
	}
	if !rel1.At.Equal(fixed) {
		t.Error("timestamp not from injected clock")
	}

	w2 := wrapper.NewMem("weather-v2", "weather-api", nil, sig("weather-v2", "id#i", "temperature", "city").Attributes)
	rel2, err := mgr.Register(w2)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Kind != release.NewVersion || rel2.Supersedes != "weather-v1" {
		t.Fatalf("rel2 = %+v", rel2)
	}
	if !rel2.Breaking || len(rel2.Changes) != 1 || rel2.Changes[0].Kind != release.AttributeRenamed {
		t.Fatalf("rel2 changes = %v", rel2.Changes)
	}
	sum := rel2.Summary()
	for _, frag := range []string{"new-version", "supersedes weather-v1", "renamed temp -> temperature", "BREAKING"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary missing %q: %s", frag, sum)
		}
	}

	if got := len(mgr.Log()); got != 2 {
		t.Errorf("log = %d", got)
	}
	hist := mgr.History("weather-api")
	if len(hist) != 2 || hist[0].Wrapper != "weather-v1" {
		t.Errorf("history = %v", hist)
	}
	if got := mgr.History("players-api"); len(got) != 0 {
		t.Errorf("unrelated history = %v", got)
	}
}

func TestManagerRegisterDuplicateRollsBack(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	dup := wrapper.NewMem("w1", usecase.SrcPlayers, nil, sig("w1", "id#i").Attributes)
	if _, err := mgr.Register(dup); err == nil {
		t.Fatal("duplicate wrapper accepted")
	}
	if len(mgr.Log()) != 0 {
		t.Error("failed release logged")
	}
}

func TestManagerRegisterUnknownSourceRollsBack(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	w := wrapper.NewMem("wx", "ghost-api", nil, sig("wx", "a").Attributes)
	if _, err := mgr.Register(w); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, ok := f.Reg.Get("wx"); ok {
		t.Error("registry not rolled back")
	}
}

func TestDetectDrift(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	// No drift initially.
	changes, err := mgr.DetectDrift(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("unexpected drift: %v", changes)
	}
	// Provider silently ships v2 payloads on the same endpoint.
	f.W1.SetDocs(usecase.PlayersV2Docs())
	changes, err = mgr.DetectDrift(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if !release.IsBreaking(changes) {
		t.Fatalf("breaking drift not detected: %v", changes)
	}
	var sawRename bool
	for _, c := range changes {
		if c.Kind == release.AttributeRenamed && c.Attribute == "pName" && c.NewName == "fullName" {
			sawRename = true
		}
	}
	if !sawRename {
		t.Errorf("pName->fullName rename not detected: %v", changes)
	}
	if _, err := mgr.DetectDrift(context.Background(), "ghost"); err == nil {
		t.Error("unknown wrapper accepted")
	}
}

func TestSuggestMapping(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	// Register w1v2 without a mapping.
	w := wrapper.NewMem("w1v2", usecase.SrcPlayers, usecase.PlayersV2Docs(), nil)
	if _, err := mgr.Register(w); err != nil {
		t.Fatal(err)
	}
	suggested, changes, err := mgr.SuggestMapping("w1", "w1v2")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) == 0 {
		t.Fatal("no changes detected")
	}
	// Renamed attribute carries its feature link.
	if suggested.SameAs["fullName"] != usecase.PlayerName {
		t.Errorf("rename link = %v", suggested.SameAs["fullName"])
	}
	// Kept attribute keeps its link; removed attributes drop theirs.
	if suggested.SameAs["id"] != usecase.PlayerID {
		t.Errorf("kept link = %v", suggested.SameAs["id"])
	}
	if _, ok := suggested.SameAs["weight"]; ok {
		t.Error("removed attribute kept a link")
	}
	// Subgraph drops the weight/rating hasFeature edges but keeps the
	// relation edge.
	for _, tr := range suggested.Subgraph {
		if tr.O == usecase.Weight || tr.O == usecase.Rating {
			t.Errorf("dropped feature still in subgraph: %v", tr)
		}
	}
	keptRelation := false
	for _, tr := range suggested.Subgraph {
		if tr.P == usecase.PlaysIn {
			keptRelation = true
		}
	}
	if !keptRelation {
		t.Error("relation edge lost in suggestion")
	}
	// Errors (checked before the suggestion is defined, while w1v2 still
	// has no mapping of its own).
	if _, _, err := mgr.SuggestMapping("ghost", "w1v2"); err == nil {
		t.Error("unknown prev wrapper accepted")
	}
	if _, _, err := mgr.SuggestMapping("w1", "ghost"); err == nil {
		t.Error("unknown new wrapper accepted")
	}
	if _, _, err := mgr.SuggestMapping("w1v2", "w1"); err == nil {
		t.Error("prev wrapper without mapping accepted")
	}
	// The suggestion is directly definable (position not mapped — the
	// steward adds new features manually).
	if err := f.Ont.DefineMapping(suggested); err != nil {
		t.Fatalf("suggested mapping invalid: %v", err)
	}
}

// TestManagerConcurrentRegisterSeqs: registrations racing each other and
// concurrent Log readers still yield the dense Seqs 1..N, each once.
func TestManagerConcurrentRegisterSeqs(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	const n = 32
	for i := 0; i < n; i++ {
		if err := f.Ont.AddDataSource(fmt.Sprintf("src-%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, rel := range mgr.Log() {
					if rel.Seq != i+1 {
						t.Errorf("Log()[%d].Seq = %d", i, rel.Seq)
						return
					}
				}
			}
		}()
	}
	seqs := make([]int, n)
	var writers sync.WaitGroup
	for i := 0; i < n; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			name := fmt.Sprintf("w-%d", i)
			rel, err := mgr.Register(wrapper.NewMem(name, fmt.Sprintf("src-%d", i), nil, sig(name, "id#i").Attributes))
			if err != nil {
				t.Error(err)
				return
			}
			seqs[i] = rel.Seq
		}(i)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	seen := map[int]bool{}
	for i, seq := range seqs {
		if seq < 1 || seq > n || seen[seq] {
			t.Fatalf("registration %d got Seq %d (seen before: %v)", i, seq, seen[seq])
		}
		seen[seq] = true
	}
	if got := len(mgr.Log()); got != n {
		t.Fatalf("log length = %d, want %d", got, n)
	}
}

// TestManagerLogRebuiltFromOntology: a manager constructed over an
// ontology that already holds release records (a reopened system)
// continues the same log, field for field, and the next Seq after it.
func TestManagerLogRebuiltFromOntology(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	fixed := time.Date(2018, 3, 26, 10, 0, 0, 123, time.UTC)
	mgr.Now = func() time.Time { return fixed }
	if err := f.Ont.AddDataSource("weather-api", "Weather API"); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*wrapper.Mem{
		wrapper.NewMem("weather-v1", "weather-api", nil, sig("weather-v1", "id#i", "temp", "city").Attributes),
		wrapper.NewMem("weather-v2", "weather-api", nil, sig("weather-v2", "id#i", "temperature", "town", "wind").Attributes),
	} {
		if _, err := mgr.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	want := mgr.Log()
	if len(want[1].Changes) == 0 {
		t.Fatalf("second release has no changes: %+v", want[1])
	}

	again := release.NewManager(f.Ont, wrapper.NewRegistry())
	if got := again.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt log differs:\n got %+v\nwant %+v", got, want)
	}
	if got := again.History("weather-api"); len(got) != 2 {
		t.Fatalf("rebuilt history = %+v", got)
	}
	rel, err := again.Register(wrapper.NewMem("weather-v3", "weather-api", nil, sig("weather-v3", "id#i").Attributes))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Seq != 3 {
		t.Fatalf("next Seq after rebuild = %d, want 3", rel.Seq)
	}
}
