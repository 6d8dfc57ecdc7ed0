package loader

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"e9patch/internal/group"
)

func buildGrouped(t testing.TB) *group.Result {
	t.Helper()
	res, err := group.Build([]group.Chunk{
		{Addr: 0x700100, Data: []byte{0xDE, 0xAD}},
		{Addr: 0x702800, Data: []byte{0xBE, 0xEF, 0x01}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	res := buildGrouped(t)
	sig := map[uint64]uint64{0x401000: 0x700100, 0x401005: 0x702800}
	blob := Encode(res, 1, sig, 0x401234)
	b, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if b.Entry != 0x401234 || b.Granularity != 1 {
		t.Errorf("header mismatch: %+v", b)
	}
	if len(b.Mappings) != len(res.Mappings) || len(b.Blocks) != len(res.Blocks) {
		t.Fatalf("structure mismatch")
	}
	for i, mp := range res.Mappings {
		if b.Mappings[i] != mp {
			t.Errorf("mapping %d = %+v, want %+v", i, b.Mappings[i], mp)
		}
	}
	for i := range res.Blocks {
		if !bytes.Equal(b.Blocks[i], res.Blocks[i]) {
			t.Errorf("block %d differs", i)
		}
	}
	if len(b.SigTab) != 2 || b.SigTab[0x401000] != 0x700100 {
		t.Errorf("sigtab = %v", b.SigTab)
	}
}

// header is a blob's fixed header followed by an empty mmap table:
// magic, granularity 1, blockSize, entry 0, no mappings.
func header(blockSize uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, blobMagic)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint64(b, blockSize)
	b = le.AppendUint64(b, 0)
	return le.AppendUint32(b, 0)
}

// hugeBlockBlob claims one block of 2^64-1 bytes in a 48-byte blob: a
// block size cast to int went negative and passed the bounds check.
func hugeBlockBlob() []byte {
	return append(binary.LittleEndian.AppendUint32(header(1<<64-1), 1), make([]byte, 16)...)
}

func TestDecodeErrors(t *testing.T) {
	le := binary.LittleEndian
	blob := Encode(buildGrouped(t), 1, map[uint64]uint64{0x401000: 0x700100}, 0)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"nil", nil},
		{"bad magic", []byte{1, 2, 3, 4}},
		{"truncated", blob[:len(blob)-5]},
		{"block size 2^64-1", hugeBlockBlob()},
		{"block size 2^63", append(le.AppendUint32(header(1<<63), 1), make([]byte, 16)...)},
		{"block size 2^32", append(le.AppendUint32(header(1<<32), 1), make([]byte, 16)...)},
		{"zero block size", le.AppendUint32(le.AppendUint32(header(0), 1<<20), 0)},
		{"zero block size, no blocks", le.AppendUint32(le.AppendUint32(header(0), 0), 0)},
		{"mappings past the end", le.AppendUint32(header(4096)[:24], 1<<32-1)},
		{"blocks past the end", le.AppendUint32(header(4096), 1<<32-1)},
		{"dispatch entries past the end", le.AppendUint32(le.AppendUint32(header(4096), 0), 1<<32-1)},
		{"trailing byte", append(blob[:len(blob):len(blob)], 0)},
		{"trailing entry", append(blob[:len(blob):len(blob)], make([]byte, 16)...)},
	} {
		if _, err := Decode(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzDecode: Decode never panics, and whatever it accepts encodes to
// a blob that decodes to the same table.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(buildGrouped(f), 1, map[uint64]uint64{0x401000: 0x700100, 0x401005: 0x702800}, 0x401234))
	f.Add(hugeBlockBlob())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		res := &group.Result{Mappings: b.Mappings, Blocks: b.Blocks, Stats: group.Stats{BlockSize: b.BlockSize}}
		again, err := Decode(Encode(res, int(b.Granularity), b.SigTab, b.Entry))
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("round trip changed the table:\n got %+v\nwant %+v", again, b)
		}
	})
}

// TestEncodeLargeSigTab: the B0 dispatch table is ordered with a real
// sort. The exchange sort it replaces took 16 s for 100 000 entries
// and four times that per doubling, reachable from outside through a
// ForceB0 rewrite of any large binary. This encode takes 30 ms, and
// 200-280 ms under the race detector, which is what the bound leaves
// room for.
func TestEncodeLargeSigTab(t *testing.T) {
	const n = 200_000
	sig := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		sig[0x401000+i*3] = 0x7000_0000 + i*16
	}
	res := buildGrouped(t)
	start := time.Now()
	blob := Encode(res, 1, sig, 0x401234)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Encode of %d dispatch entries took %v, want < 2s", n, d)
	}
	b, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.SigTab, sig) {
		t.Fatalf("dispatch table did not survive the round trip (%d entries back)", len(b.SigTab))
	}
	// The entries are written in ascending key order (deterministic
	// output), after the header, mappings and blocks.
	tab := blob[len(blob)-16*n:]
	for i := 1; i < n; i++ {
		if binary.LittleEndian.Uint64(tab[16*i:]) <= binary.LittleEndian.Uint64(tab[16*(i-1):]) {
			t.Fatalf("entry %d out of order", i)
		}
	}
}
