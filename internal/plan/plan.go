// Package plan defines the serializable patch-plan IR that joins the
// rewriter's two phases: Plan (all decisions — tactic selection, pun
// and prefix choices, eviction chains, trampoline placement — made
// against the input bytes) and Apply (a decision-free materializer
// that replays the recorded decisions onto the input and reproduces
// the rewritten binary byte-for-byte).
//
// A PatchPlan is a pure function of the input binary and the rewrite
// configuration: planning the same binary twice yields byte-identical
// encodings. That makes plans content-addressable artefacts — a few
// dozen bytes per patch site (codec.go) that can be cached, audited, or
// shipped to another machine and applied there, instead of the
// megabyte-scale output binary they describe. JSON is how a plan is
// shown to a person (PatchPlan.JSON, e9dump -plan), never how one is
// stored or read back.
//
// The package is a leaf: it depends only on the standard library, so
// every layer (patch core, public API, server, tools) can share the IR
// without import cycles.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"e9patch/internal/e9err"
)

// Version is the plan schema version understood by this build. Decode
// rejects any other value: a plan is an exact replay script, so there
// is no forward- or backward-compatible interpretation of a mismatch.
// Version 1 was the JSON serialization; 2 is the binary codec.
const Version = 2

// TacticNames are the tactic names a Site may carry, indexed by the
// code the binary codec stores (and by patch.Tactic, which is defined
// over this table).
var TacticNames = [...]string{"none", "B1", "B2", "T1", "T2", "T3", "B0"}

// Bytes is a byte slice that renders as a lowercase hex string, so
// machine code stays greppable in the JSON rendering.
type Bytes []byte

// MarshalJSON implements json.Marshaler.
func (b Bytes) MarshalJSON() ([]byte, error) {
	return json.Marshal(hex.EncodeToString(b))
}

// Write is one committed byte edit inside the text section, in runtime
// coordinates (load bias included).
type Write struct {
	Addr uint64 `json:"addr"`
	Data Bytes  `json:"data"`
}

// Trampoline is one trampoline the plan places: its virtual address,
// the patched (or evicted) instruction it serves, and the emitted code.
type Trampoline struct {
	Addr    uint64 `json:"addr"`
	For     uint64 `json:"for"`
	Evictee bool   `json:"evictee,omitempty"`
	Code    Bytes  `json:"code"`
}

// SigEntry is one B0 dispatch-table binding: the int3 address and the
// trampoline the SIGTRAP handler must redirect to.
type SigEntry struct {
	Int3       uint64 `json:"int3"`
	Trampoline uint64 `json:"trampoline"`
}

// Injection is one extra memory image the plan maps into the output
// binary's address space, in runtime coordinates: user payload ELF
// segments and the call trampoline's argument tables. Injections are
// loaded alongside the trampoline pages and never overlap the input's
// own segments (Apply revalidates this).
type Injection struct {
	Addr uint64 `json:"addr"`
	Data Bytes  `json:"data"`
}

// Site records the complete decision for one patch location, in patch
// (descending-address) order. A failed location is recorded too — with
// tactic "none" and no effects — so per-location outcomes and
// statistics survive the round trip.
type Site struct {
	// Addr is the patch instruction's runtime address.
	Addr uint64 `json:"addr"`
	// Tactic is the methodology that succeeded ("B1", "B2", "T1",
	// "T2", "T3", "B0") or "none".
	Tactic string `json:"tactic"`
	// Pad is the redundant-prefix count chosen for the patch jump
	// (the T1 prefix choice; 0 for unpadded placements).
	Pad int `json:"pad,omitempty"`
	// Writes are the committed text edits, in commit order. For T2/T3
	// the victim's eviction jump precedes the patch jump, preserving
	// the evictee chain.
	Writes []Write `json:"writes,omitempty"`
	// Trampolines are the trampolines emitted for this site, evictee
	// trampolines included, in emission order.
	Trampolines []Trampoline `json:"trampolines,omitempty"`
	// SigTab holds the site's B0 dispatch entries (at most one today).
	SigTab []SigEntry `json:"sigtab,omitempty"`
}

// PatchPlan is the full rewrite decision record for one input binary.
type PatchPlan struct {
	// Version is the schema version (see Version).
	Version int `json:"version"`
	// InputSHA256 binds the plan to its input binary; Apply refuses
	// any other input, and any plan without it.
	InputSHA256 string `json:"inputSha256,omitempty"`
	// Bias is the load bias used while planning (PIEBase for PIE).
	Bias uint64 `json:"bias"`
	// TextAddr is the runtime virtual address of .text (bias included);
	// TextLen its size. Apply validates both against the input.
	TextAddr uint64 `json:"textAddr"`
	TextLen  int    `json:"textLen"`
	// Granularity is the physical-page-grouping block size in pages
	// (negative: grouping disabled, naïve one-to-one emission).
	Granularity int `json:"granularity"`
	// SkipPrefix mirrors Config.SkipPrefix: Apply re-derives the
	// instruction universe from the text past it.
	SkipPrefix uint64 `json:"skipPrefix,omitempty"`
	// Disasm names the instruction-recovery mode the plan was made
	// under ("linear", "superset", "superset-cet"). DisasmDigest
	// fingerprints the recovered instruction universe (see
	// disasm.UniverseDigest): Apply re-derives it under the same mode
	// and refuses a plan whose universe differs — a plan emitted under
	// one mode cannot be replayed under another. Apply refuses a plan
	// without either.
	Disasm       string `json:"disasm,omitempty"`
	DisasmDigest string `json:"disasmDigest,omitempty"`
	// Insts and BadBytes record the disassembly outcome the decisions
	// were made against.
	Insts    int `json:"insts"`
	BadBytes int `json:"badBytes,omitempty"`
	// Warnings carries the non-fatal diagnostics of the plan phase.
	Warnings []string `json:"warnings,omitempty"`
	// Injections are the extra memory images the plan maps (payload
	// ELF segments, argument tables), in configuration order.
	Injections []Injection `json:"injections,omitempty"`
	// Sites are the per-location decisions in patch order.
	Sites []Site `json:"sites"`
}

// JSON renders the plan for reading: deterministic, indented, byte
// fields as hex (struct field order is fixed and no maps are involved).
// Nothing parses it back; Encode is the serialized form.
func (p *PatchPlan) JSON() ([]byte, error) {
	j, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("plan: render: %w", err)
	}
	return append(j, '\n'), nil
}

// InputDigest returns the hex SHA-256 a plan uses to bind its input.
func InputDigest(input []byte) string {
	h := sha256.Sum256(input)
	return hex.EncodeToString(h[:])
}

// BindInput records the digest of the input binary the plan was made
// for.
func (p *PatchPlan) BindInput(input []byte) { p.InputSHA256 = InputDigest(input) }

// CheckInput verifies input matches the bound digest.
func (p *PatchPlan) CheckInput(input []byte) error {
	if got := InputDigest(input); got != p.InputSHA256 {
		return e9err.Malformed("apply", fmt.Sprintf("plan: input mismatch: plan bound to sha256 %s, input is %s", p.InputSHA256, got))
	}
	return nil
}

// TacticCounts aggregates the per-site tactics by name.
func (p *PatchPlan) TacticCounts() map[string]int {
	out := make(map[string]int)
	for i := range p.Sites {
		out[p.Sites[i].Tactic]++
	}
	return out
}

// TrampolineCount returns the number of trampolines the plan places.
func (p *PatchPlan) TrampolineCount() int {
	n := 0
	for i := range p.Sites {
		n += len(p.Sites[i].Trampolines)
	}
	return n
}

// PatchedBytes returns the total number of text bytes the plan edits,
// an audit measure of rewrite footprint.
func (p *PatchPlan) PatchedBytes() int {
	n := 0
	for i := range p.Sites {
		for _, w := range p.Sites[i].Writes {
			n += len(w.Data)
		}
	}
	return n
}
