package disasm

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"e9patch/internal/elf64"
	"e9patch/internal/x86"
)

// The one outside opinion on instruction boundaries that is on the
// machine without a download: the Go toolchain builds a real x86-64
// executable and `go tool objdump` (the toolchain's x86asm, which
// shares nothing with internal/x86) disassembles it.

// objdumpFloor is the share of objdump's instructions, inside symbols,
// that linear recovery must find at the same address with the same
// length (99.53 % measured with go1.24 on cmd/e9dump).
const objdumpFloor = 0.994

// objdumpExceptions names every leading opcode at which the length
// decoder itself disagrees with objdump: encodings the opcode maps
// deliberately leave out (x86/table.go), found in the runtime's and
// crypto's hand-written assembly. A miss with any other leading opcode
// fails the test; a miss further on, where the sweep has not yet
// resynchronised after one of these, counts against the floor only.
var objdumpExceptions = map[string]string{
	"0F 01": "group 7 (xgetbv): system instructions outside the supported subset",
	"0F 38": "three-byte escape (SSSE3/SSE4/SHA): unsupported",
	"0F 3A": "three-byte escape (pclmulqdq, palignr, aeskeygenassist): unsupported",
	"C4":    "three-byte VEX prefix (AVX/AVX2/BMI): unsupported",
	"C5":    "two-byte VEX prefix (AVX): unsupported",
}

// objdumpInsts builds ./cmd/e9dump and returns the binary's bytes and
// what `go tool objdump` says its instructions are. It skips the test
// when either tool cannot run.
func objdumpInsts(t *testing.T) (bin []byte, addrs []uint64, lens []int) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a binary and disassembles it with go tool objdump")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool: %v", err)
	}
	path := filepath.Join(t.TempDir(), "e9dump")
	build := exec.Command(goTool, "build", "-o", path, "e9patch/cmd/e9dump")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("go build ./cmd/e9dump: %v\n%s", err, out)
	}
	listing, err := exec.Command(goTool, "tool", "objdump", path).Output()
	if err != nil {
		t.Skipf("go tool objdump: %v", err)
	}
	if bin, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}

	// A line is "  file:line  0xADDR  HEXBYTES  MNEMONIC operands";
	// "TEXT symbol(SB) file" opens each symbol, and "?" is a byte
	// objdump itself could not decode, on which it has no opinion.
	sc := bufio.NewScanner(bytes.NewReader(listing))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || f[0] == "TEXT" || f[3] == "?" {
			continue
		}
		addr, err := strconv.ParseUint(f[1], 0, 64)
		if err != nil {
			continue
		}
		raw, err := hex.DecodeString(f[2])
		if err != nil {
			continue
		}
		addrs, lens = append(addrs, addr), append(lens, len(raw))
	}
	if len(addrs) < 1000 {
		t.Skipf("go tool objdump listed %d instructions: not the format this test reads", len(addrs))
	}
	return bin, addrs, lens
}

// leadingOpcode names the opcode the instruction at code[0] leads with,
// past its legacy and REX prefixes: two bytes for the 0F map's groups
// and escapes that the exception list tells apart, one otherwise.
func leadingOpcode(code []byte) string {
	for len(code) > 1 && (bytes.IndexByte(legacyPrefixes, code[0]) >= 0 || code[0]&0xF0 == 0x40) {
		code = code[1:]
	}
	if code[0] == 0x0F && len(code) > 1 {
		return fmt.Sprintf("0F %02X", code[1])
	}
	return fmt.Sprintf("%02X", code[0])
}

var legacyPrefixes = []byte{0x66, 0x67, 0xF0, 0xF2, 0xF3, 0x2E, 0x36, 0x3E, 0x26, 0x64, 0x65}

// TestObjdumpAgreement holds linear recovery and the length decoder to
// `go tool objdump` on compiler output: the share of boundaries they
// agree on has a floor, and the leading opcodes at which the decoder
// disagrees are a named list, so a change to the decoder that moves a
// boundary on real code shows here.
func TestObjdumpAgreement(t *testing.T) {
	bin, addrs, lens := objdumpInsts(t)
	f, err := elf64.Parse(bin)
	if err != nil {
		t.Fatal(err)
	}
	text, base, err := f.Text()
	if err != nil {
		t.Fatal(err)
	}
	lengthAt := make(map[uint64]uint8)
	res := linear(text, base)
	for i := range res.Insts {
		lengthAt[res.Insts[i].Addr] = res.Insts[i].Len
	}

	total, agree := 0, 0
	missed := map[string]int{}
	for i, addr := range addrs {
		if addr < base || addr+uint64(lens[i]) > base+uint64(len(text)) {
			continue
		}
		total++
		if int(lengthAt[addr]) == lens[i] {
			agree++
			continue
		}
		// The sweep and objdump part ways here. Is it the decoder, on
		// these very bytes, or a sweep still out of step after an
		// earlier miss?
		code := text[addr-base:]
		if n, _, err := x86.Shape(code); err != nil || n != lens[i] {
			missed[leadingOpcode(code)]++
		}
	}
	share := float64(agree) / float64(total)
	t.Logf("linear recovery agrees with go tool objdump on %d of %d instructions inside symbols (%.2f %%), %d undecodable bytes",
		agree, total, 100*share, res.BadBytes)
	if share < objdumpFloor {
		t.Errorf("agreement %.4f is below the floor %.4f", share, objdumpFloor)
	}

	var keys []string
	for k := range missed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		why, known := objdumpExceptions[k]
		if !known {
			t.Errorf("the length decoder disagrees with objdump at %d instructions led by %s, which is not a named exception", missed[k], k)
			continue
		}
		t.Logf("%5d led by %-5s %s", missed[k], k, why)
	}
}
