package modis

import (
	"hash/fnv"
	"math"
	"strconv"
)

// Fingerprint condenses every campaign observable into one FNV-64a word —
// what the campaign goldens pin: two runs agree on the fingerprint iff they
// agree on the Table 2 execution mix, the daily series, the request books,
// and every float tally bit for bit. The field walk order is fixed, and
// sample values are hashed sorted.
func (s *Stats) Fingerprint() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	wu := func(v uint64) {
		buf = strconv.AppendUint(buf[:0], v, 16)
		buf = append(buf, '|')
		h.Write(buf)
	}
	ws := func(v string) {
		h.Write([]byte(v))
		h.Write([]byte{'|'})
	}
	for _, name := range s.TaskExecs.Names() {
		ws(name)
		wu(s.TaskExecs.Get(name))
	}
	for _, name := range s.Outcomes.Names() {
		ws(name)
		wu(s.Outcomes.Get(name))
	}
	for d := range s.DailyExecs {
		wu(s.DailyExecs[d])
		wu(s.DailyTimeouts[d])
	}
	wu(s.DistinctTasks)
	wu(s.Requests)
	wu(s.Retries)
	wu(math.Float64bits(s.WastedSeconds))
	wu(s.FalseKills)
	wu(s.CompletedRequests)
	for _, v := range s.TurnaroundHours.Values() {
		wu(math.Float64bits(v))
	}
	wu(s.StorageRetries)
	for _, name := range s.StorageErrors.Names() {
		ws(name)
		wu(s.StorageErrors.Get(name))
	}
	wu(s.CrashAborted)
	wu(s.ReplacementVMs)
	return h.Sum64()
}
