package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/pisa"
	"repro/internal/planner"
	"repro/internal/queries"
)

// smallScaleFigureDigests are the SHA-256 digests of the TSV of each
// deterministic figure at SmallScale. Overhead is timing-based and Fig3 and
// Fig9 have their own shape tests, so they are not here. A change that
// moves any figure must say so and re-record the digest it moves.
var smallScaleFigureDigests = map[string]string{
	"table3": "1e9a4d4f1b8ba198b0096116be9a94cdd02b3491c96a2ad576dcdab2767ed617",
	"fig5":   "129ade44fce256ba5d39e74dc4da203ff081e3c5015056ceb96f0dd1c618f26b",
	"fig7a":  "8a980d9039c8ca53e8511c959ec52e7d0c8a3de59135c239c84e0ab97bcd2a69",
	"fig7b":  "5d8743ce13640e0cbbacfc7d5b3d62477125af57e40dae6cac6fc32b58723d22",
	"fig8a":  "012f34bb7fd94e544fea56d3d515eb3ba10aebb755f5929468c0ee6f6ad2af08",
	"fig8b":  "54a73fe677112a3627f258f97fb56b7565ec79bd1716e7682c267319d9338114",
	"fig8c":  "6e040eccd9d99c219eb6e8cbcb694340c56d2302d26d0b7c967d76be346e8453",
	"fig8d":  "f71b69100ea527f6635ffcc80b176ff0d14ce13a354c4d8e68638ccbae5c3639",
}

// TestSmallScaleFiguresGolden pins Table 3 and Fig. 5, 7a, 7b and 8 at
// SmallScale to the digit. Fig. 7a, 7b and 8 run their experiments in
// parallel, so under -race (make check-eval) the test also shows that those
// runs share only the workload's frame cache and the cached training.
func TestSmallScaleFiguresGolden(t *testing.T) {
	w := smallWorkload(t)
	w.Workers = 2 // sharded like cmd/eval; reports equal the one-shard ones
	cfg := pisa.DefaultConfig()
	tabs := []*Table{Table3(queries.DefaultParams(), planner.DefaultMenu)}
	fig5, err := Fig5(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	fig7a, err := Fig7a(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig7b, err := Fig7b(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := Fig8(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tabs = append(tabs, fig5, fig7a, fig7b, fig8["fig8a"], fig8["fig8b"], fig8["fig8c"], fig8["fig8d"])
	for _, tab := range tabs {
		sum := sha256.Sum256([]byte(tab.TSV()))
		got := hex.EncodeToString(sum[:])
		if want := smallScaleFigureDigests[tab.ID]; got != want {
			t.Errorf("%s: TSV digest %s, want %s; table now:\n%s", tab.ID, got, want, tab.Render())
		}
	}
}
