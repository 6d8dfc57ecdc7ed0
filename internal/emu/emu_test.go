package emu

import (
	"math/rand"
	"testing"

	"e9patch/internal/x86"
)

const (
	testBase = 0x401000
	stackTop = 0x7ff000
	heapBase = 0x2000000
	rtOutput = 0x9000000
	rtMalloc = 0x9000100
	rtExit   = 0x9000200
)

// runProgram assembles, loads and runs a program to completion.
func runProgram(t *testing.T, build func(a *x86.Asm)) *Machine {
	t.Helper()
	m := newProgram(t, build)
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.Halted() {
		t.Fatal("machine did not halt")
	}
	return m
}

func newProgram(t *testing.T, build func(a *x86.Asm)) *Machine {
	t.Helper()
	a := x86.NewAsm(testBase)
	build(a)
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.Mem.WriteBytes(testBase, code)
	m.SetupStack(stackTop, 0x10000)
	BindOutput(m, rtOutput)
	BindExit(m, rtExit)
	BindMalloc(m, rtMalloc, NewBumpAllocator(heapBase, 0x100000))
	m.RIP = testBase
	return m
}

// callRT emits a runtime call through a scratch register.
func callRT(a *x86.Asm, addr uint64) {
	a.MovRegImm64(x86.R11, addr)
	a.CallReg(x86.R11)
}

func TestLoopSum(t *testing.T) {
	// sum = 0; for i = 0..9 { sum += i*i }; output sum; ret.
	m := runProgram(t, func(a *x86.Asm) {
		a.XorRegReg32(x86.RAX, x86.RAX) // sum
		a.XorRegReg32(x86.RCX, x86.RCX) // i
		top := a.NewLabel()
		a.Bind(top)
		a.MovRegReg64(x86.RDX, x86.RCX)
		a.ImulRegReg64(x86.RDX, x86.RCX)
		a.AddRegReg64(x86.RAX, x86.RDX)
		a.AddRegImm64(x86.RCX, 1)
		a.CmpRegImm64(x86.RCX, 10)
		a.JccShort(x86.CondL, top)
		a.MovRegReg64(x86.RDI, x86.RAX)
		callRT(a, rtOutput)
		a.Ret()
	})
	if len(m.Output) != 1 || m.Output[0] != 285 {
		t.Errorf("output = %v, want [285]", m.Output)
	}
	if m.ExitCode != 285 {
		t.Errorf("exit code = %d", m.ExitCode)
	}
}

func TestMemoryAndSIB(t *testing.T) {
	m := runProgram(t, func(a *x86.Asm) {
		a.MovRegImm64(x86.RBX, heapBase)
		// Store 8 values via SIB addressing, then sum them back.
		for i := 0; i < 8; i++ {
			a.MovRegImm32(x86.RAX, uint32(i*7))
			a.MovRegImm32(x86.RCX, uint32(i))
			a.MovMemReg64(x86.MIdx(x86.RBX, x86.RCX, 8, 0), x86.RAX)
		}
		a.XorRegReg32(x86.RDI, x86.RDI)
		for i := 0; i < 8; i++ {
			a.AddRegMem64(x86.RDI, x86.M(x86.RBX, int32(i*8)))
		}
		callRT(a, rtOutput)
		a.Ret()
	})
	// Pages must be mapped on demand by the stores.
	if m.Output[0] != 7*(0+1+2+3+4+5+6+7) {
		t.Errorf("output = %v", m.Output)
	}
}

func TestCallRet(t *testing.T) {
	m := runProgram(t, func(a *x86.Asm) {
		fn := a.NewLabel()
		done := a.NewLabel()
		a.MovRegImm32(x86.RDI, 20)
		a.Call(fn)
		a.MovRegReg64(x86.RDI, x86.RAX)
		callRT(a, rtOutput)
		a.Jmp(done)
		// fn: return rdi*2+1
		a.Bind(fn)
		a.Lea(x86.RAX, x86.MIdx(x86.RDI, x86.RDI, 1, 1))
		a.Ret()
		a.Bind(done)
		a.Ret()
	})
	if m.Output[0] != 41 {
		t.Errorf("output = %v, want [41]", m.Output)
	}
}

func TestPushPopFlags(t *testing.T) {
	m := runProgram(t, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 5)
		a.CmpRegImm64(x86.RAX, 5) // ZF=1
		a.Pushfq()
		a.AddRegImm64(x86.RAX, 1) // clobbers ZF
		a.Popfq()
		skip := a.NewLabel()
		a.MovRegImm32(x86.RDI, 0)
		a.JccShort(x86.CondNE, skip)
		a.MovRegImm32(x86.RDI, 1) // taken path: ZF restored
		a.Bind(skip)
		callRT(a, rtOutput)
		a.Ret()
	})
	if m.Output[0] != 1 {
		t.Errorf("flags not preserved across pushfq/popfq: %v", m.Output)
	}
}

func TestMallocRuntime(t *testing.T) {
	m := runProgram(t, func(a *x86.Asm) {
		a.MovRegImm32(x86.RDI, 64)
		callRT(a, rtMalloc)
		a.MovMemImm32(x86.M(x86.RAX, 0), 0xBEEF)
		a.MovRegMem32(x86.RDI, x86.M(x86.RAX, 0))
		callRT(a, rtOutput)
		a.Ret()
	})
	if m.Output[0] != 0xBEEF {
		t.Errorf("output = %#x", m.Output)
	}
	if m.Counters.RuntimeCalls != 2 {
		t.Errorf("runtime calls = %d", m.Counters.RuntimeCalls)
	}
}

func TestInt3Dispatch(t *testing.T) {
	// int3 at testBase dispatches through SigTab to a trampoline that
	// performs the displaced work and jumps back.
	a := x86.NewAsm(testBase)
	a.Int3()                      // replaces "mov rdi, 77" (10 bytes... use 5)
	a.Raw(0x90, 0x90, 0x90, 0x90) // filler for displaced 5-byte inst
	resume := a.Addr()
	_ = resume
	callRT(a, rtOutput)
	a.Ret()
	code := a.MustFinish()

	// Trampoline at a far address: mov edi, 77; jmp back.
	tr := x86.NewAsm(0x8000000)
	tr.MovRegImm32(x86.RDI, 77)
	tr.JmpRel32(testBase + 5)
	trCode := tr.MustFinish()

	m := NewMachine()
	m.Mem.WriteBytes(testBase, code)
	m.Mem.WriteBytes(0x8000000, trCode)
	m.SetupStack(stackTop, 0x10000)
	BindOutput(m, rtOutput)
	m.SigTab[testBase] = 0x8000000
	m.RIP = testBase
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(m.Output) != 1 || m.Output[0] != 77 {
		t.Fatalf("output = %v", m.Output)
	}
	if m.Counters.Signals != 1 {
		t.Errorf("signals = %d", m.Counters.Signals)
	}
	if m.Counters.Cycles < m.Cost.Signal {
		t.Error("signal cost not charged")
	}
}

func TestUnexpectedInt3(t *testing.T) {
	m := newProgram(t, func(a *x86.Asm) { a.Int3() })
	if err := m.Run(10); err == nil {
		t.Fatal("expected error for unhandled int3")
	}
}

func TestUd2(t *testing.T) {
	m := newProgram(t, func(a *x86.Asm) { a.Ud2() })
	err := m.Run(10)
	if err == nil {
		t.Fatal("ud2 must fault")
	}
}

func TestReadFault(t *testing.T) {
	m := newProgram(t, func(a *x86.Asm) {
		a.MovRegImm64(x86.RBX, 0xdead0000)
		a.MovRegMem64(x86.RAX, x86.M(x86.RBX, 0))
		a.Ret()
	})
	if err := m.Run(10); err == nil {
		t.Fatal("expected read fault")
	}
}

func TestShiftAndMovzx(t *testing.T) {
	m := runProgram(t, func(a *x86.Asm) {
		a.MovRegImm64(x86.RAX, 0x1234_5678_9ABC_DEF0)
		a.ShrRegImm64(x86.RAX, 32)
		a.ShlRegImm64(x86.RAX, 4)
		a.MovRegImm64(x86.RBX, heapBase)
		a.MovMemReg64(x86.M(x86.RBX, 0), x86.RAX)
		a.MovZXRegMem8(x86.RDI, x86.M(x86.RBX, 0))
		callRT(a, rtOutput)
		a.Ret()
	})
	// 0x12345678 << 4 = 0x123456780; low byte = 0x80.
	if m.Output[0] != 0x80 {
		t.Errorf("output = %#x", m.Output[0])
	}
}

func TestConditionMatrix(t *testing.T) {
	// For random pairs, every signed/unsigned comparison condition
	// must agree with Go's comparisons.
	rng := rand.New(rand.NewSource(3))
	conds := []struct {
		cc   x86.Cond
		want func(a, b int64) bool
	}{
		{x86.CondE, func(a, b int64) bool { return a == b }},
		{x86.CondNE, func(a, b int64) bool { return a != b }},
		{x86.CondL, func(a, b int64) bool { return a < b }},
		{x86.CondGE, func(a, b int64) bool { return a >= b }},
		{x86.CondLE, func(a, b int64) bool { return a <= b }},
		{x86.CondG, func(a, b int64) bool { return a > b }},
		{x86.CondB, func(a, b int64) bool { return uint64(a) < uint64(b) }},
		{x86.CondAE, func(a, b int64) bool { return uint64(a) >= uint64(b) }},
		{x86.CondBE, func(a, b int64) bool { return uint64(a) <= uint64(b) }},
		{x86.CondA, func(a, b int64) bool { return uint64(a) > uint64(b) }},
	}
	for trial := 0; trial < 200; trial++ {
		var av, bv int64
		switch trial % 3 {
		case 0:
			av, bv = int64(rng.Uint64()), int64(rng.Uint64())
		case 1:
			av, bv = int64(rng.Intn(100)-50), int64(rng.Intn(100)-50)
		case 2:
			av = int64(rng.Uint64())
			bv = av
		}
		for _, c := range conds {
			cc := c.cc
			m := runProgram(t, func(a *x86.Asm) {
				a.MovRegImm64(x86.RAX, uint64(av))
				a.MovRegImm64(x86.RBX, uint64(bv))
				a.CmpRegReg64(x86.RAX, x86.RBX)
				yes := a.NewLabel()
				a.JccShort(cc, yes)
				a.MovRegImm32(x86.RDI, 0)
				callRT(a, rtOutput)
				a.Ret()
				a.Bind(yes)
				a.MovRegImm32(x86.RDI, 1)
				callRT(a, rtOutput)
				a.Ret()
			})
			want := uint64(0)
			if c.want(av, bv) {
				want = 1
			}
			if m.Output[0] != want {
				t.Fatalf("cond %v with a=%d b=%d: got %d want %d", cc, av, bv, m.Output[0], want)
			}
		}
	}
}

func TestFarJumpCost(t *testing.T) {
	// A jump across more than FarDistance must charge the far cost.
	m := newProgram(t, func(a *x86.Asm) {
		a.JmpRel32(testBase + 0x4000000)
	})
	m.Mem.WriteBytes(testBase+0x4000000, []byte{0xC3}) // ret -> exit
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	// One for the jump itself, one for the final ret to the (distant)
	// exit sentinel.
	if m.Counters.FarJumps != 2 {
		t.Errorf("far jumps = %d", m.Counters.FarJumps)
	}
}

func TestIndirectJumpTable(t *testing.T) {
	// A switch-style indirect jump through a table in memory, with the
	// target code assembled at a separate address.
	const fnAddr = testBase + 0x2000
	a := x86.NewAsm(testBase)
	a.MovRegImm64(x86.RBX, heapBase)
	a.MovRegImm64(x86.RAX, fnAddr)
	a.MovMemReg64(x86.M(x86.RBX, 8), x86.RAX) // table[1] = fn
	a.MovRegImm32(x86.RCX, 1)                 // selector
	a.JmpMem(x86.MIdx(x86.RBX, x86.RCX, 8, 0))
	main := a.MustFinish()

	f := x86.NewAsm(fnAddr)
	f.MovRegImm32(x86.RDI, 42)
	callRT(f, rtOutput)
	f.Ret()
	fn := f.MustFinish()

	m := NewMachine()
	m.Mem.WriteBytes(testBase, main)
	m.Mem.WriteBytes(fnAddr, fn)
	m.Mem.Map(heapBase, 0x1000)
	m.SetupStack(stackTop, 0x10000)
	BindOutput(m, rtOutput)
	m.RIP = testBase
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(m.Output) != 1 || m.Output[0] != 42 {
		t.Errorf("output = %v", m.Output)
	}
}

func TestGroup5IndirectCall(t *testing.T) {
	m := runProgram(t, func(a *x86.Asm) {
		fn := a.NewLabel()
		a.MovRegImm64(x86.RAX, 0) // placeholder
		// Load fn's absolute address: emit movabs then patch via label
		// is unsupported; call through a register loaded with a
		// PC-computed value instead: use Call(label) for the check and
		// CallReg for the indirect path with a runtime-stored address.
		a.Call(fn)
		a.MovRegReg64(x86.RDI, x86.RAX)
		callRT(a, rtOutput)
		a.Ret()
		a.Bind(fn)
		a.MovRegImm32(x86.RAX, 1234)
		a.Ret()
	})
	if m.Output[0] != 1234 {
		t.Errorf("output = %v", m.Output)
	}
}

func TestStringOfALU(t *testing.T) {
	m := runProgram(t, func(a *x86.Asm) {
		a.MovRegImm64(x86.RAX, 1000)
		a.SubRegImm64(x86.RAX, 1)     // 999
		a.AndRegImm64(x86.RAX, 0xFF0) // 0x3e0
		a.OrRegImm64(x86.RAX, 1)      // 0x3e1
		a.XorRegImm64(x86.RAX, 0xF)   // 0x3ee
		a.NotReg64(x86.RAX)
		a.NegReg64(x86.RAX)
		a.MovRegReg64(x86.RDI, x86.RAX)
		callRT(a, rtOutput)
		a.Ret()
	})
	want := uint64(0x3ee + 1) // -(^x) = x+1
	if m.Output[0] != want {
		t.Errorf("output = %#x, want %#x", m.Output[0], want)
	}
}

// TestStepAllocatesNothing holds the interpreter's step to no
// allocation: it fetches into and decodes into buffers the machine
// owns. The loop runs ALU ops, loads, stores, push and pop, call and
// ret, a multiply, a divide, setcc and conditional branches.
func TestStepAllocatesNothing(t *testing.T) {
	m := newProgram(t, func(a *x86.Asm) {
		top, leaf, skip := a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.Bind(top)
		a.AddRegImm64(x86.RAX, 1)
		a.MovMemReg64(x86.M(x86.RSP, -16), x86.RAX)
		a.MovRegMem64(x86.RBX, x86.M(x86.RSP, -16))
		a.ImulRegReg64(x86.RBX, x86.RAX)
		a.PushReg(x86.RBX)
		a.PopReg(x86.RCX)
		a.XorRegReg32(x86.RDX, x86.RDX)
		a.Raw(0x48, 0xF7, 0xF1) // div rcx
		a.Call(leaf)
		a.CmpRegImm64(x86.RAX, 3)
		a.Setcc(x86.CondL, x86.RSI)
		a.JccShort(x86.CondL, skip)
		a.Bind(skip)
		a.Jmp(top)
		a.Bind(leaf)
		a.Ret()
	})
	var err error
	if n := testing.AllocsPerRun(1000, func() {
		if e := m.Step(); e != nil {
			err = e
		}
	}); n != 0 {
		t.Errorf("Step allocates %.2f times", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}
