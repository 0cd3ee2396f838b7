package workload

import (
	"reflect"
	"testing"

	"uhm/internal/compile"
	"uhm/internal/dir"
)

func TestNamesAndSources(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("expected at least 5 workloads, got %v", names)
	}
	for _, name := range names {
		src, err := Source(name)
		if err != nil || src == "" {
			t.Errorf("Source(%q): %v", name, err)
		}
	}
	if _, err := Source("nonexistent"); err == nil {
		t.Error("unknown workload should fail")
	}
	if _, err := Parse("nonexistent"); err == nil {
		t.Error("Parse of unknown workload should fail")
	}
	if _, err := CompileAt("nonexistent", compile.LevelStack); err == nil {
		t.Error("CompileAt of unknown workload should fail")
	}
	if _, err := ReferenceOutput("nonexistent"); err == nil {
		t.Error("ReferenceOutput of unknown workload should fail")
	}
}

func TestEveryWorkloadCompilesAndRunsAtEveryLevel(t *testing.T) {
	for _, name := range Names() {
		want, err := ReferenceOutput(name)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: reference output is empty; every workload must print something", name)
		}
		for _, level := range compile.Levels() {
			t.Run(name+"/"+level.String(), func(t *testing.T) {
				dp, err := CompileAt(name, level)
				if err != nil {
					t.Fatal(err)
				}
				res, err := dir.Execute(dp, dir.ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Output, want) {
					t.Errorf("output = %v, want %v", res.Output, want)
				}
			})
		}
	}
}

func TestKnownOutputs(t *testing.T) {
	cases := map[string][]int64{
		"fib":       {377},   // fib(14)
		"sieve":     {31},    // primes below 128
		"ackermann": {9, 61}, // ack(2,3), ack(3,3)
	}
	for name, want := range cases {
		got, err := ReferenceOutput(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s output = %v, want %v", name, got, want)
		}
	}
}

func TestMustCompileAt(t *testing.T) {
	if p := MustCompileAt("fib", compile.LevelMem3); p == nil || len(p.Instrs) == 0 {
		t.Error("MustCompileAt returned an empty program")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCompileAt should panic for unknown workloads")
		}
	}()
	MustCompileAt("nonexistent", compile.LevelStack)
}

// TestArchetypeCatalogue checks the workload-level archetype catalogue stays
// in lockstep with the generator's and that generation round-trips through it.
func TestArchetypeCatalogue(t *testing.T) {
	infos := Archetypes()
	if len(infos) < 4 {
		t.Fatalf("expected >= 4 archetypes, got %d", len(infos))
	}
	names := ArchetypeNames()
	if len(names) != len(infos) {
		t.Fatalf("ArchetypeNames (%d) and Archetypes (%d) disagree", len(names), len(infos))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("catalogue order mismatch at %d: %q vs %q", i, info.Name, names[i])
		}
		if info.Description == "" {
			t.Errorf("archetype %q has no description", info.Name)
		}
		p, err := GenerateArchetype(info.Name, 1)
		if err != nil {
			t.Errorf("GenerateArchetype(%q, 1): %v", info.Name, err)
			continue
		}
		if p.Archetype != info.Name || len(p.Output) == 0 {
			t.Errorf("GenerateArchetype(%q, 1) = %q with %d outputs", info.Name, p.Archetype, len(p.Output))
		}
	}
	if _, err := GenerateArchetype("no-such-profile", 1); err == nil {
		t.Error("GenerateArchetype accepted an unknown archetype")
	}
}
