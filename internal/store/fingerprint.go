package store

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"hybridmem/internal/api"
)

// Fingerprint derives a content address from the canonical parts of a
// request: the same parts always produce the same key, and any change
// to a part — including the engine or schema version every caller folds
// in via VersionParts — produces a different one. Parts are
// NUL-separated so concatenation ambiguity cannot alias two requests.
//
// This is the single canonical fingerprint of the repo: the serve
// layer's request/job IDs and the per-run records that exp.Runner and
// the cluster coordinator share (RunKey) all derive their keys from it,
// so every layer addresses the same store entries the same way.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// VersionParts returns the canonical leading fingerprint parts of a
// keyed record kind: the kind name plus the engine and schema versions.
// Bumping either version changes every key, invalidating all persisted
// entries at once — the store's only invalidation mechanism.
func VersionParts(kind string) []string {
	return []string{
		kind,
		"engine=" + strconv.Itoa(api.EngineVersion),
		"schema=" + strconv.Itoa(api.SchemaVersion),
	}
}

// RunKey is the canonical store key of one simulation run — the unit
// the experiment runner memoizes and persists. It covers every input
// that determines a run's result: the design, the workload, the NM:FM
// ratio, and the runner knobs (scale, instruction budget, seed,
// prefetcher) that the in-process memo used to leave implicit.
func RunKey(design, workload string, ratio16, scale int, instrPerCore, seed uint64, prefetch bool) string {
	parts := append(VersionParts("simrun"),
		"design="+design,
		"workload="+workload,
		"ratio16="+strconv.Itoa(ratio16),
		"scale="+strconv.Itoa(scale),
		"instr="+strconv.FormatUint(instrPerCore, 10),
		"seed="+strconv.FormatUint(seed, 10),
		"prefetch="+strconv.FormatBool(prefetch),
	)
	return Fingerprint(parts...)
}
