package jobs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzConfig feeds untrusted job JSON through the submission path's pure
// front half: json.Unmarshal → Normalized → Hash must never panic, and a
// normalized config is a fixed point of Normalized (same value, same
// content address), so resubmitting a stored canonical config can never
// re-address it.
func FuzzConfig(f *testing.F) {
	for _, s := range []string{
		`{"experiment":"table1"}`,
		`{"experiment":"table1","config":"ii","cases":3,"p":9,"techniques":["P1","SGDP"]}`,
		`{"experiment":"pushout","config":"I","cases":4,"seed":7,"monte_carlo":true,"keep_going":true}`,
		`{"experiment":"sta","netlist":"design x\ninput a\noutput a\n","liberty":"library(l){}","wire":"elmore","require":{"a":"500ps"}}`,
		`{"experiment":"table1","range_s":-1,"cases":-5}`,
		`{"experiment":"sta","cases":1}`,
		`{"experiment":"bogus"}`,
		`{}`,
		`[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		n, err := c.Normalized()
		if err != nil {
			return
		}
		h := n.Hash()
		n2, err := n.Normalized()
		if err != nil {
			t.Fatalf("normalized config rejected on renormalization: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(n, n2) {
			t.Fatalf("Normalized is not idempotent:\n first %+v\nsecond %+v", n, n2)
		}
		if n2.Hash() != h {
			t.Fatalf("renormalized config re-addressed: %s vs %s", n2.Hash(), h)
		}
	})
}
