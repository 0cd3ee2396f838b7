package psder

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShortOpAndModeStrings(t *testing.T) {
	ops := []ShortOp{OpPush, OpPop, OpCall, OpInterp}
	names := []string{"PUSH", "POP", "CALL", "INTERP"}
	for i, op := range ops {
		if op.String() != names[i] || !op.Valid() {
			t.Errorf("op %d: %q valid=%v", i, op.String(), op.Valid())
		}
	}
	if ShortOp(9).Valid() || ShortOp(9).String() == "" {
		t.Error("unknown short op should be invalid but render")
	}
	if ModeImm.String() != "imm" || ModeStack.String() != "stack" {
		t.Error("mode names")
	}
	if Mode(9).Valid() || Mode(9).String() == "" {
		t.Error("unknown mode should be invalid but render")
	}
}

func TestRoutineNamesCostsAndValidity(t *testing.T) {
	for r := RoutineID(0); r.Valid(); r++ {
		if r.String() == "" {
			t.Errorf("routine %d has no name", r)
		}
		if r.BaseCost() <= 0 {
			t.Errorf("routine %s has non-positive cost", r)
		}
	}
	if RoutineID(200).Valid() {
		t.Error("routine 200 should be invalid")
	}
	if RoutineID(200).String() == "" || RoutineID(200).BaseCost() <= 0 {
		t.Error("unknown routine should render and have a default cost")
	}
	if NumRoutines != int(routineCount) {
		t.Errorf("NumRoutines = %d", NumRoutines)
	}
	if LibraryFootprintWords() != NumRoutines*RoutineFootprintWords {
		t.Error("library footprint")
	}
	// Division should cost more than addition; calls more than loads.
	if RoutineDiv.BaseCost() <= RoutineAdd.BaseCost() {
		t.Error("div should cost more than add")
	}
	if RoutineCall.BaseCost() <= RoutineLoadVar.BaseCost() {
		t.Error("call should cost more than a variable load")
	}
}

func TestConstructorsAndStrings(t *testing.T) {
	if Push(5) != (Instr{Op: OpPush, Mode: ModeImm, Arg: 5}) {
		t.Error("Push constructor")
	}
	if Pop() != (Instr{Op: OpPop}) {
		t.Error("Pop constructor")
	}
	c := Call(RoutineAdd)
	if c.Op != OpCall || c.Routine() != RoutineAdd {
		t.Error("Call constructor")
	}
	if InterpImm(9) != (Instr{Op: OpInterp, Mode: ModeImm, Arg: 9}) {
		t.Error("InterpImm constructor")
	}
	if InterpStack() != (Instr{Op: OpInterp, Mode: ModeStack}) {
		t.Error("InterpStack constructor")
	}
	for _, in := range []Instr{Push(-3), Pop(), Call(RoutineMul), InterpImm(7), InterpStack()} {
		if in.String() == "" {
			t.Errorf("instruction %+v has empty String", in)
		}
	}
	if (Instr{Op: ShortOp(9)}).String() == "" {
		t.Error("unknown instruction should render")
	}
}

func TestSequenceProperties(t *testing.T) {
	seq := Sequence{Push(1), Push(2), Call(RoutineLoadVar), Call(RoutineAdd), InterpImm(3)}
	if seq.Words() != 5 {
		t.Errorf("Words = %d", seq.Words())
	}
	if seq.Calls() != 2 {
		t.Errorf("Calls = %d", seq.Calls())
	}
	wantCost := 5 + RoutineLoadVar.BaseCost() + RoutineAdd.BaseCost()
	if seq.BaseSemanticCost() != wantCost {
		t.Errorf("BaseSemanticCost = %d, want %d", seq.BaseSemanticCost(), wantCost)
	}
	if seq.String() == "" {
		t.Error("sequence String")
	}
}

func TestValidate(t *testing.T) {
	good := []Sequence{
		{InterpImm(0)},
		{Push(1), Call(RoutineAdd), InterpStack()},
		{Call(RoutineHalt)},
		{Pop(), InterpImm(2)},
		{Push(-1234567), Call(RoutineStoreVar), InterpStack()},
		{Push(argMax), Push(argMin), InterpImm(argMax)},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("sequence %d should validate: %v", i, err)
		}
	}
	bad := []struct {
		name string
		seq  Sequence
		want error
	}{
		{"empty", Sequence{}, nil},
		{"no interp", Sequence{Push(1), Call(RoutineAdd)}, ErrNoInterp},
		{"bad opcode", Sequence{{Op: ShortOp(9)}, InterpImm(0)}, nil},
		{"bad mode", Sequence{{Op: OpPush, Mode: Mode(9)}, InterpImm(0)}, nil},
		{"bad routine", Sequence{{Op: OpCall, Arg: 99}, InterpImm(0)}, nil},
		{"arg overflow", Sequence{Push(1 << 24), InterpImm(0)}, ErrArgRange},
		{"arg underflow", Sequence{Push(-(1 << 24)), InterpImm(0)}, ErrArgRange},
	}
	for _, c := range bad {
		err := c.seq.Validate()
		if err == nil {
			t.Errorf("%s: expected validation error", c.name)
			continue
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// Property: a sequence of valid instructions whose arguments fit the 24-bit
// word field validates, and widening one argument past the field fails with
// ErrArgRange.
func TestQuickValidate(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		length := int(n%10) + 1
		seq := make(Sequence, 0, length+1)
		for i := 0; i < length; i++ {
			switch rng.Intn(3) {
			case 0:
				seq = append(seq, Push(int32(rng.Intn(1<<24))-(1<<23)))
			case 1:
				seq = append(seq, Pop())
			default:
				seq = append(seq, Call(RoutineID(rng.Intn(NumRoutines))))
			}
		}
		if rng.Intn(2) == 0 {
			seq = append(seq, InterpImm(rng.Intn(1<<20)))
		} else {
			seq = append(seq, InterpStack())
		}
		if seq.Validate() != nil {
			return false
		}
		seq[0] = Push(argMax + 1 + rng.Int31n(1<<20))
		return errors.Is(seq.Validate(), ErrArgRange)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
