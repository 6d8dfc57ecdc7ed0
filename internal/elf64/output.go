package elf64

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"e9patch/internal/e9err"
)

// WriteOutput creates the executable file path from what write sends to
// its writer. The bytes go to a temporary file beside path that is
// renamed over it once complete, so path never holds a partial output,
// and may name the very file an Input is mapped from: a streamed rewrite
// reads that mapping while it writes, and truncating the file under it
// would fault. The temporary file is created exclusively with mode 0755
// (under the umask, what os.WriteFile gives a new file) and removed on
// any failure; failures not already classified are reported as
// ErrOutput.
//
// A path that exists and is not a regular file (-o /dev/null) is written
// through instead of replaced; a symbolic link to a regular file is
// replaced, not followed.
func WriteOutput(path string, write func(w io.Writer) error) error {
	return e9err.Wrap(e9err.ErrOutput, "emit", writeOutput(path, write))
}

func writeOutput(path string, write func(w io.Writer) error) error {
	if st, err := os.Stat(path); err == nil && !st.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		return writeClose(f, write)
	}
	var f *os.File
	for try := 0; ; try++ {
		var err error
		f, err = os.OpenFile(fmt.Sprintf("%s.%08x.tmp", path, rand.Uint32()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o755)
		if err == nil {
			break
		}
		if !os.IsExist(err) || try == 100 {
			return err
		}
	}
	err := writeClose(f, write)
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// writeClose runs write on f and closes it, reporting the first failure.
func writeClose(f *os.File, write func(w io.Writer) error) error {
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
