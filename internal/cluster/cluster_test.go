package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkReader hands out its data at most chunk bytes per Read, records
// how much room each Read was offered, and after the data either ends
// (io.EOF) or fails with stall, standing in for a sender that stopped.
type chunkReader struct {
	data    []byte
	chunk   int
	stall   error
	offered []int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	r.offered = append(r.offered, len(p))
	if len(r.data) == 0 {
		if r.stall != nil {
			return 0, r.stall
		}
		return 0, io.EOF
	}
	n := copy(p, r.data[:min(r.chunk, len(r.data))])
	r.data = r.data[n:]
	return n, nil
}

// TestReadSized: a truthful hint costs one exactly sized buffer, a
// missing or wrong one still reads everything, and a declared length is
// never a reservation: a sender that declares 1 GB, sends 10 bytes and
// stalls has had at most ReadReserve set aside for it.
func TestReadSized(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 300_000) // 4.8 MB, over the reserve
	for _, tc := range []struct {
		name string
		n    int
		hint int64
	}{
		{"exact hint", 100_000, 100_000},
		{"exact hint over the reserve", len(payload), int64(len(payload))},
		{"no hint", len(payload), -1},
		{"zero hint", 5000, 0},
		{"short hint", len(payload), 1000},
		{"long hint", 1000, 1 << 30},
		{"empty", 0, 0},
	} {
		r := &chunkReader{data: payload[:tc.n], chunk: 64 << 10}
		got, err := ReadSized(r, tc.hint)
		if err != nil || !bytes.Equal(got, payload[:tc.n]) {
			t.Fatalf("%s: read %d bytes, err %v; want %d", tc.name, len(got), err, tc.n)
		}
		if tc.hint == int64(tc.n) && tc.n > 511 && cap(got) != tc.n+1 {
			t.Errorf("%s: a truthful hint of %d ended in a %d-byte buffer", tc.name, tc.n, cap(got))
		}
		for i, room := range r.offered {
			if room == 0 {
				t.Fatalf("%s: read %d was offered no room", tc.name, i)
			}
		}
	}

	gone := errors.New("sender stalled, then went away")
	r := &chunkReader{data: []byte("ten bytes!"), chunk: 10, stall: gone}
	got, err := ReadSized(r, 1<<30)
	if !errors.Is(err, gone) || string(got) != "ten bytes!" {
		t.Fatalf("stalled sender: %q, %v", got, err)
	}
	if len(r.offered) != 2 || r.offered[0] > ReadReserve+1 || 10+r.offered[1] > ReadReserve+1 {
		t.Errorf("stalled sender declaring 1 GB was offered %v bytes of room, want at most %d", r.offered, ReadReserve+1)
	}
}
