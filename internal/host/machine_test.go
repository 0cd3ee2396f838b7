package host

import (
	"errors"
	"reflect"
	"testing"

	"uhm/internal/compile"
	"uhm/internal/dir"
	"uhm/internal/hlr"
	"uhm/internal/psder"
	"uhm/internal/translate"
)

// runOnMachine drives a DIR program through the UHM machine: every
// instruction is translated to its PSDER sequence and executed, exactly as
// the simulator's strategies do (but without any timing of fetches).
func runOnMachine(t *testing.T, p *dir.Program) ([]int64, *Machine, int64) {
	t.Helper()
	m := New(p, Options{})
	seqs, err := translate.TranslateProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	pc := p.Procs[0].Entry
	var cycles int64
	for steps := 0; ; steps++ {
		if steps > 10_000_000 {
			t.Fatal("machine did not halt")
		}
		res, err := m.ExecSequence(seqs[pc])
		if err != nil {
			t.Fatalf("pc %d (%s): %v", pc, p.Instrs[pc], err)
		}
		cycles += res.SemanticCycles
		if res.Halted {
			return m.Output(), m, cycles
		}
		pc = res.NextPC
	}
}

var machineSources = map[string]string{
	"fib": `
program fib;
var n;
proc fibo(k);
begin
  if k < 2 then return k
  else return fibo(k - 1) + fibo(k - 2)
end;
begin
  n := 11;
  print fibo(n)
end.`,
	"arrays": `
program arrays;
var a[20], i, sum;
begin
  i := 0;
  while i < 20 do
  begin
    a[i] := i * 3;
    i := i + 1
  end;
  sum := 0;
  i := 0;
  while i < 20 do
  begin
    sum := sum + a[i];
    i := i + 1
  end;
  print sum
end.`,
	"uplevel": `
program uplevel;
var counter;
proc outer(n);
  proc bump(k);
  begin
    counter := counter + k + n
  end;
begin
  call bump(1);
  call bump(2)
end;
begin
  counter := 0;
  call outer(10);
  call outer(100);
  print counter
end.`,
	"mixed": `
program mixed;
var a, b, r;
proc choose(x, y);
begin
  if x >= y then return x;
  return y
end;
begin
  a := 6; b := 19;
  r := choose(a * 2, b) + a mod 4 - (0 - 5);
  print r;
  print (a < b) or (a = b);
  print not (a < b)
end.`,
}

func TestMachineMatchesReferenceInterpreters(t *testing.T) {
	for name, src := range machineSources {
		prog := hlr.MustParse(src)
		want, err := hlr.Evaluate(prog, hlr.EvalOptions{})
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for _, level := range compile.Levels() {
			t.Run(name+"/"+level.String(), func(t *testing.T) {
				dp := compile.MustCompile(hlr.MustParse(src), level)
				// Oracle 1: the HLR evaluator.  Oracle 2: the DIR executor.
				dirRes, err := dir.Execute(dp, dir.ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, _, _ := runOnMachine(t, dp)
				if !reflect.DeepEqual(got, want.Output) {
					t.Errorf("machine output = %v, want %v (HLR oracle)", got, want.Output)
				}
				if !reflect.DeepEqual(got, dirRes.Output) {
					t.Errorf("machine output = %v, want %v (DIR oracle)", got, dirRes.Output)
				}
			})
		}
	}
}

func TestMachineSemanticCyclesPositive(t *testing.T) {
	dp := compile.MustCompile(hlr.MustParse(machineSources["fib"]), compile.LevelStack)
	_, m, cycles := runOnMachine(t, dp)
	if cycles <= 0 {
		t.Error("semantic cycles should accumulate")
	}
	if !m.Halted() {
		t.Error("machine should be halted after the program ends")
	}
	if m.State() == nil {
		t.Error("State accessor")
	}
}

func TestExecSequenceAfterHalt(t *testing.T) {
	dp := compile.MustCompile(hlr.MustParse("program p; begin print 1 end."), compile.LevelStack)
	m := New(dp, Options{})
	seqs, _ := translate.TranslateProgram(dp)
	pc := 0
	for !m.Halted() {
		res, err := m.ExecSequence(seqs[pc])
		if err != nil {
			t.Fatal(err)
		}
		if res.Halted {
			break
		}
		pc = res.NextPC
	}
	if _, err := m.ExecSequence(seqs[0]); !errors.Is(err, ErrHalted) {
		t.Errorf("err = %v, want ErrHalted", err)
	}
}

// A CALL that halts the program ends its sequence early: ShortInstrs counts
// the executed prefix only, so a caller can attribute IU1/IU2 activity from
// seq[:ShortInstrs].
func TestExecSequenceHaltingCallCountsExecutedPrefix(t *testing.T) {
	dp := compile.MustCompile(hlr.MustParse("program p; begin print 1 end."), compile.LevelStack)
	m := New(dp, Options{})
	seq := psder.Sequence{
		psder.Push(7), psder.Call(psder.RoutinePrint), psder.Call(psder.RoutineHalt),
		psder.Push(1), psder.InterpImm(0),
	}
	res, err := m.ExecSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.ShortInstrs != 3 {
		t.Errorf("halted=%v shortInstrs=%d, want true 3", res.Halted, res.ShortInstrs)
	}
	want := int64(3 + psder.RoutinePrint.BaseCost() + psder.RoutineHalt.BaseCost())
	if res.SemanticCycles != want {
		t.Errorf("semantic cycles = %d, want %d (the executed prefix only)", res.SemanticCycles, want)
	}
	if got := m.Output(); !reflect.DeepEqual(got, []int64{7}) {
		t.Errorf("output = %v, want [7]", got)
	}
}

func TestExecSequenceErrors(t *testing.T) {
	dp := compile.MustCompile(hlr.MustParse("program p; var x; begin x := 1 end."), compile.LevelStack)
	m := New(dp, Options{})

	// A sequence with no INTERP and no halt.
	if _, err := m.ExecSequence(psder.Sequence{psder.Push(1)}); !errors.Is(err, ErrNoNext) {
		t.Errorf("err = %v, want ErrNoNext", err)
	}
	// INTERP to an out-of-range DIR address.
	if _, err := m.ExecSequence(psder.Sequence{psder.InterpImm(999)}); err == nil {
		t.Error("INTERP out of range should fail")
	}
	// Stack underflow inside a routine.
	if _, err := m.ExecSequence(psder.Sequence{psder.Call(psder.RoutineAdd), psder.InterpImm(0)}); err == nil {
		t.Error("routine underflow should fail")
	}
	// POP of an empty stack.
	if _, err := m.ExecSequence(psder.Sequence{psder.Pop(), psder.InterpImm(0)}); err == nil {
		t.Error("POP underflow should fail")
	}
	// Unknown routine.
	if _, err := m.ExecSequence(psder.Sequence{{Op: psder.OpCall, Arg: 99}, psder.InterpImm(0)}); err == nil {
		t.Error("unknown routine should fail")
	}
	// Call to an unknown procedure index.
	bad := psder.Sequence{psder.Push(9), psder.Push(0), psder.Push(0), psder.Call(psder.RoutineCall), psder.InterpStack()}
	if _, err := m.ExecSequence(bad); err == nil {
		t.Error("call to unknown procedure should fail")
	}
}

func TestCallDepthLimit(t *testing.T) {
	src := "program deep; proc r(n); begin return r(n + 1) end; begin print r(0) end."
	dp := compile.MustCompile(hlr.MustParse(src), compile.LevelStack)
	m := New(dp, Options{MaxDepth: 30})
	seqs, err := translate.TranslateProgram(dp)
	if err != nil {
		t.Fatal(err)
	}
	pc := 0
	for i := 0; i < 100000; i++ {
		res, err := m.ExecSequence(seqs[pc])
		if err != nil {
			if !errors.Is(err, ErrCallDepth) {
				t.Fatalf("err = %v, want ErrCallDepth", err)
			}
			return
		}
		if res.Halted {
			t.Fatal("program should not halt normally")
		}
		pc = res.NextPC
	}
	t.Fatal("expected the call depth limit to trigger")
}

func TestUplevelAddressingCostsStaticLinkHops(t *testing.T) {
	// Accessing a global from a nested procedure must cost more than
	// accessing a local, because of static-link hops.
	src := `
program hops;
var g;
proc q(x);
begin
  g := x
end;
begin
  call q(3);
  print g
end.`
	dp := compile.MustCompile(hlr.MustParse(src), compile.LevelStack)
	seqs, _ := translate.TranslateProgram(dp)
	m := New(dp, Options{})

	// Find the STV instruction inside q (stores to depth 0 from depth 1).
	var uplevelStore, localLoadCost int64
	pc := dp.Procs[0].Entry
	for !m.Halted() {
		in := dp.Instrs[pc]
		res, err := m.ExecSequence(seqs[pc])
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == dir.OpStoreVar && in.Operands[0].Addr.Depth == 0 && in.Contour == 1 {
			uplevelStore = res.SemanticCycles
		}
		if in.Op == dir.OpPushVar && in.Operands[0].Addr.Depth == 1 && in.Contour == 1 {
			localLoadCost = res.SemanticCycles
		}
		if res.Halted {
			break
		}
		pc = res.NextPC
	}
	if uplevelStore == 0 {
		t.Fatal("did not observe the up-level store")
	}
	if localLoadCost == 0 {
		t.Fatal("did not observe the local parameter load")
	}
	if uplevelStore <= localLoadCost {
		t.Errorf("up-level store (%d cycles) should cost more than a local load (%d cycles)",
			uplevelStore, localLoadCost)
	}
}

func BenchmarkMachineFib(b *testing.B) {
	dp := compile.MustCompile(hlr.MustParse(machineSources["fib"]), compile.LevelStack)
	seqs, err := translate.TranslateProgram(dp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(dp, Options{})
		pc := 0
		for {
			res, err := m.ExecSequence(seqs[pc])
			if err != nil {
				b.Fatal(err)
			}
			if res.Halted {
				break
			}
			pc = res.NextPC
		}
	}
}
