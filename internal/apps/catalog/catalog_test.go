package catalog

import "testing"

// TestEveryAppBuildsAtEveryScale builds each catalogued application at each
// scale: a scale is only usable if every app validates at it.
func TestEveryAppBuildsAtEveryScale(t *testing.T) {
	scales := []struct {
		name string
		sc   Scale
	}{{"Full", Full}, {"Quick", Quick}, {"Micro", Micro}}
	for _, app := range Names() {
		for _, s := range scales {
			t.Run(app+"/"+s.name, func(t *testing.T) {
				w, err := ByName(app, s.sc)
				if err != nil {
					t.Fatal(err)
				}
				if w.Name != app || w.Fingerprint == "" {
					t.Fatalf("workload %q (fingerprint %q) does not identify %s", w.Name, w.Fingerprint, app)
				}
			})
		}
	}
}
