package disasm

import "testing"

// SetRewriteOracle installs FuzzSupersetPrune's rewrite oracle.
func SetRewriteOracle(f func(t *testing.T, code []byte)) { rewriteOracle = f }
