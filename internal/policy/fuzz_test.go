package policy_test

// Fuzz target for registry policy-name parsing — the daemon's
// user-facing string surface (POST /v1/policy bodies, -policy flags).
// The seed corpus covers every canonical name, every alias, spelling
// variants, and near-misses; additional literal seeds live in
// testdata/fuzz/FuzzParse. Properties: Parse never panics, accepted
// spellings resolve to a registered canonical name and re-parse
// identically under the case/whitespace normalization, and rejections
// list every valid policy.

import (
	"strings"
	"testing"

	"corun/internal/policy"
)

func FuzzParse(f *testing.F) {
	for _, info := range policy.List() {
		f.Add(info.Name)
		f.Add(strings.ToUpper(info.Name))
		f.Add("  " + info.Name + "\t")
		for _, a := range info.Aliases {
			f.Add(a)
		}
	}
	f.Add("")
	f.Add("   ")
	f.Add("hcs++")
	f.Add("hcs plus")
	f.Add("default-gpu") // alias of the default dispatcher
	f.Add("Optimal\n")

	f.Fuzz(func(t *testing.T, name string) {
		p, err := policy.Parse(name)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned a policy alongside an error", name)
			}
			for _, valid := range policy.Names() {
				if !strings.Contains(err.Error(), valid) {
					t.Errorf("rejection of %q does not list valid policy %q", name, valid)
				}
			}
			return
		}
		canon := p.Name()
		registered := false
		for _, n := range policy.Names() {
			registered = registered || n == canon
		}
		if !registered {
			t.Fatalf("Parse(%q) resolved to unregistered policy %q", name, canon)
		}
		// Canonical names round-trip through Parse and Canonical.
		if again, err := policy.Parse(canon); err != nil || again.Name() != canon {
			t.Errorf("canonical %q does not round-trip: %v", canon, err)
		}
		if c, err := policy.Canonical(name); err != nil || c != canon {
			t.Errorf("Canonical(%q) = %q, %v, want %q", name, c, err, canon)
		}
		// Normalization is idempotent over case and whitespace (guard
		// against the rare Unicode spellings whose upper-case form
		// lower-cases differently).
		variant := " " + strings.ToUpper(name) + "\t"
		if strings.ToLower(strings.ToUpper(name)) == strings.ToLower(name) {
			if v, err := policy.Parse(variant); err != nil || v.Name() != canon {
				t.Errorf("Parse(%q) = %v, want policy %q", variant, err, canon)
			}
		}
	})
}
