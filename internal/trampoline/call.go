package trampoline

import (
	"fmt"

	"e9patch/internal/x86"
)

// Call is the spec language's `call fn(args)@payload` patch kind: the
// trampoline calls a function inside a user-supplied payload ELF that
// the rewriter injects into the binary's address space, marshalling
// typed per-instruction arguments.
//
// ABI (DESIGN.md §11.3):
//
//   - Every caller-visible general-purpose register and the flags are
//     saved before the call and restored after it; the patch function
//     may clobber anything the SysV ABI lets a callee clobber (and
//     more — the trampoline does not trust it).
//   - Arguments are passed in the SysV integer registers rdi, rsi,
//     rdx, rcx, r8, r9 (at most 6).
//   - A valid return address is on the stack; the function returns
//     with `ret`. Its return value is ignored.
//   - The stack pointer is NOT 16-byte aligned at entry. Payload code
//     must not rely on SSE spills or other alignment assumptions
//     (E9Tool has the same caveat; build payloads accordingly).
//
// The displaced instruction executes after the context is restored,
// so the patch function observes the program state *before* the
// instruction — matching E9Tool's default "before" instrumentation
// position.
type Call struct {
	// Fn is the absolute address of the patch function inside the
	// injected payload.
	Fn uint64
	// Args are marshalled into argument registers in order.
	Args []Arg

	// asmTab maps instruction addresses to the address of their
	// NUL-terminated assembly string inside the injected string table.
	// Built by Prepare; required exactly when Args uses ArgAsm.
	asmTab map[uint64]uint64
}

// ArgKind enumerates the argument sources a call patch can marshal.
type ArgKind int

const (
	// ArgStatic passes a 64-bit constant from the spec.
	ArgStatic ArgKind = iota
	// ArgAddr passes the patched instruction's address.
	ArgAddr
	// ArgSize passes the instruction's encoded length in bytes.
	ArgSize
	// ArgTarget passes a direct branch's target (0 when indirect).
	ArgTarget
	// ArgImm passes the sign-extended immediate operand's bit image.
	ArgImm
	// ArgNext passes the address of the next instruction.
	ArgNext
	// ArgAsm passes a pointer to the instruction's NUL-terminated
	// AT&T-syntax rendering in an injected string table.
	ArgAsm
)

func (k ArgKind) String() string {
	switch k {
	case ArgStatic:
		return "static"
	case ArgAddr:
		return "addr"
	case ArgSize:
		return "size"
	case ArgTarget:
		return "target"
	case ArgImm:
		return "imm"
	case ArgNext:
		return "next"
	case ArgAsm:
		return "asm"
	}
	return fmt.Sprintf("argkind(%d)", int(k))
}

// Arg is one marshalled call argument.
type Arg struct {
	Kind ArgKind
	// Value is the constant for ArgStatic.
	Value uint64
}

// String renders the argument in spec syntax.
func (a Arg) String() string {
	if a.Kind == ArgStatic {
		return fmt.Sprintf("%#x", a.Value)
	}
	return a.Kind.String()
}

// ArgRegs are the SysV integer argument registers, in order. Its
// length bounds the arguments a call patch can marshal.
var ArgRegs = []x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9}

// Preparer is implemented by templates that need a whole-selection
// pass before sizing: the pipeline calls Prepare once, after matching
// and before trampoline construction, with every selected instruction
// and an allocator that injects extra data into the output binary's
// address space (returning its load address).
type Preparer interface {
	Prepare(insts []x86.Loc, selected []int, alloc func(data []byte) (uint64, error)) error
}

// Prepare implements Preparer: when any argument is ArgAsm it builds
// a deduplicated NUL-terminated string table of the selected
// instructions' renderings, injects it, and records each site's
// string address. Without ArgAsm arguments it is a no-op.
func (c *Call) Prepare(insts []x86.Loc, selected []int, alloc func(data []byte) (uint64, error)) error {
	needAsm := false
	for _, a := range c.Args {
		if a.Kind == ArgAsm {
			needAsm = true
			break
		}
	}
	if !needAsm {
		return nil
	}
	var blob []byte
	strOff := make(map[string]uint64)
	tab := make(map[uint64]uint64, len(selected))
	var in x86.Inst
	for _, idx := range selected {
		if idx < 0 || idx >= len(insts) {
			return fmt.Errorf("trampoline: call prepare: selected index %d out of range", idx)
		}
		insts[idx].DecodeInto(&in)
		s := in.String()
		off, ok := strOff[s]
		if !ok {
			off = uint64(len(blob))
			blob = append(blob, s...)
			blob = append(blob, 0)
			strOff[s] = off
		}
		tab[in.Addr] = off
	}
	if len(blob) == 0 {
		// Nothing selected; still allocate one byte so every ArgAsm
		// lookup failure below is a real bug, not an empty-table alias.
		blob = []byte{0}
	}
	base, err := alloc(blob)
	if err != nil {
		return err
	}
	for addr := range tab {
		tab[addr] += base
	}
	c.asmTab = tab
	return nil
}

// argValue resolves one argument for one instruction.
func (c *Call) argValue(inst *x86.Inst, a Arg) (uint64, error) {
	switch a.Kind {
	case ArgStatic:
		return a.Value, nil
	case ArgAddr:
		return inst.Addr, nil
	case ArgSize:
		return uint64(inst.Len), nil
	case ArgTarget:
		if inst.RelSize == 0 {
			return 0, nil
		}
		return inst.Target(), nil
	case ArgImm:
		return uint64(inst.Imm()), nil
	case ArgNext:
		return inst.Addr + uint64(inst.Len), nil
	case ArgAsm:
		addr, ok := c.asmTab[inst.Addr]
		if !ok {
			return 0, fmt.Errorf("trampoline: call: no asm string prepared for %#x (Prepare not run?)", inst.Addr)
		}
		return addr, nil
	}
	return 0, fmt.Errorf("trampoline: call: unknown argument kind %d", int(a.Kind))
}

// AppendCode implements Template. Argument marshalling uses
// fixed-width movabs encodings, so the size is placement-independent.
func (c *Call) AppendCode(dst []byte, inst *x86.Inst, at uint64) ([]byte, error) {
	if len(c.Args) > len(ArgRegs) {
		return nil, fmt.Errorf("trampoline: call: %d arguments (at most %d)", len(c.Args), len(ArgRegs))
	}
	a := x86.AppendAsm(dst, at)
	for _, r := range contextRegs {
		a.PushReg(r)
	}
	a.Pushfq()
	for i, arg := range c.Args {
		v, err := c.argValue(inst, arg)
		if err != nil {
			return nil, err
		}
		a.MovRegImm64(ArgRegs[i], v)
	}
	a.MovRegImm64(x86.RAX, c.Fn)
	a.CallReg(x86.RAX)
	a.Popfq()
	for i := len(contextRegs) - 1; i >= 0; i-- {
		a.PopReg(contextRegs[i])
	}
	if err := EmitDisplaced(&a, inst); err != nil {
		return nil, err
	}
	return a.Finish()
}
