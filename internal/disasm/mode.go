package disasm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"e9patch/internal/work"
)

// Mode selects the instruction-recovery policy the rewriter runs its
// frontend with. The paper's premise — patching needs no control-flow
// facts — makes the recovery strategy a swappable policy rather than a
// baked-in assumption: every mode produces the same artefact (a set of
// candidate instructions with locations and sizes) and the pipeline
// downstream is mode-agnostic.
type Mode string

// The recovery modes.
const (
	// ModeLinear is the classic linear sweep: decode from the section
	// start, skip undecodable bytes one at a time. Byte-identical to
	// the pre-mode rewriter at every parallelism width.
	ModeLinear Mode = "linear"
	// ModeSuperset decodes at every byte offset and keeps everything
	// that survives the closure refinement — a superset of the real
	// disassembly by construction, for binaries whose instruction
	// boundaries are unknown.
	ModeSuperset Mode = "superset"
	// ModeSupersetCET prunes the refined superset to the forward
	// closure of endbr64 anchors (plus the section start): on
	// CET-enabled binaries this classifies reachable code soundly and
	// precisely without control-flow recovery.
	ModeSupersetCET Mode = "superset-cet"
)

// Modes lists the recovery modes in documentation order.
func Modes() []Mode { return []Mode{ModeLinear, ModeSuperset, ModeSupersetCET} }

// ParseMode validates a mode name. The empty string selects ModeLinear
// so zero-valued configurations keep today's behavior.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeLinear:
		return ModeLinear, nil
	case ModeSuperset:
		return ModeSuperset, nil
	case ModeSupersetCET:
		return ModeSupersetCET, nil
	}
	return "", fmt.Errorf("disasm: unknown mode %q (want linear, superset or superset-cet)", s)
}

// SupersetStats reports what a superset-family recovery saw and kept;
// nil for ModeLinear.
type SupersetStats struct {
	// Decoded is the number of offsets that decode to an instruction;
	// Valid how many survive the closure refinement; Kept how many the
	// mode finally recovers (== Valid for ModeSuperset).
	Decoded, Valid, Kept int
	// Anchors is the number of closure seeds (endbr64 pads plus the
	// section start) for ModeSupersetCET; 0 otherwise.
	Anchors int
}

// PruneRatio is the fraction of decoded candidates the mode discarded.
func (s *SupersetStats) PruneRatio() float64 {
	if s == nil || s.Decoded == 0 {
		return 0
	}
	return 1 - float64(s.Kept)/float64(s.Decoded)
}

// Recover runs the mode's recovery over code loaded at addr.
func Recover(mode Mode, code []byte, addr uint64) (Result, *SupersetStats) {
	res, stats, _ := RecoverCancel(mode, code, addr, 1, nil, nil)
	return res, stats
}

// RecoverCancel is Recover with sharding and cooperative cancellation,
// the pipeline's single entry point for instruction recovery. Every
// mode fills the per-offset table (table.go) and emits its universe in
// address order with one walk over it, identical at every width. For
// ModeLinear that is the sequential sweep's output; for the superset
// modes it is the pruned survivor set, and BadBytes counts offsets
// where nothing decodes at all. ok=false reports a cancelled recovery,
// which has no result.
func RecoverCancel(mode Mode, code []byte, addr uint64, width int, pool *work.Pool, cancel <-chan struct{}) (Result, *SupersetStats, bool) {
	switch mode {
	case "", ModeLinear:
		res, ok := recoverLinear(code, addr, width, pool, cancel)
		return res, nil, ok
	case ModeSuperset, ModeSupersetCET:
		sup, ok := supersetCancel(code, addr, width, pool, cancel)
		if !ok {
			return Result{}, nil, false
		}
		stats := &SupersetStats{}
		stats.Decoded, stats.Valid = sup.count()
		cet := mode == ModeSupersetCET
		if cet {
			if stats.Anchors, ok = sup.cetPrune(cancel); !ok {
				return Result{}, nil, false
			}
		}
		insts, ok := sup.survivors(cet, width, pool, cancel)
		if !ok {
			return Result{}, nil, false
		}
		stats.Kept = len(insts)
		return Result{Insts: insts, BadBytes: sup.badOffsets()}, stats, true
	}
	// Modes are validated at the configuration boundary (ParseMode);
	// reaching here with an unknown mode is a programming error the
	// recovery boundaries upstream contain.
	panic(fmt.Sprintf("disasm: unvalidated mode %q", mode))
}

// UniverseDigest fingerprints the recovered instruction universe: the
// mode, every (address, length) pair in order, and the undecodable
// count. A plan records it so Apply can prove it is replaying
// decisions against the same instruction set the planner saw — a plan
// made under one mode applied under another fails the digest check
// instead of silently patching different bytes.
func UniverseDigest(mode Mode, res Result) string {
	h := sha256.New()
	h.Write([]byte(mode))
	// One Write per 4 KiB block, not per 12-byte record: the universe
	// of a browser-class binary is millions of instructions.
	const record = 12
	var block [4096 / record * record]byte
	n := 0
	for i := range res.Insts {
		if n == len(block) {
			h.Write(block[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(block[n:], res.Insts[i].Addr)
		binary.LittleEndian.PutUint32(block[n+8:], uint32(res.Insts[i].Len))
		n += record
	}
	h.Write(block[:n])
	var bad [8]byte
	binary.LittleEndian.PutUint64(bad[:], uint64(res.BadBytes))
	h.Write(bad[:])
	return hex.EncodeToString(h.Sum(nil))
}
