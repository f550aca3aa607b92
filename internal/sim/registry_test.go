package sim

import (
	"strings"
	"testing"
)

func TestByNameSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want string // normalized name; "" means baseline
	}{
		{"none", "none"},
		{"", "none"},
		{" tpc ", "tpc"},
		{"TPC", "tpc"},
		{"ghb", "ghb-pc/dc"},
		{"ghb-pc/dc", "ghb-pc/dc"},
		{"t2+p1", "t2+p1"},                        // atom with '+' in its name, not a composite
		{"ghb:entries=256,degree=4", "ghb-pc/dc"}, // defaults elide
		{"ghb:entries=512", "ghb-pc/dc:entries=512"},
		{"ghb:degree=8,entries=512", "ghb-pc/dc:entries=512,degree=8"}, // canonical order
		{"nextline:degree=2,dest=l2", "nextline:degree=2,dest=l2"},
		{"stride:dest=l1", "stride"}, // default dest elides
		{"tpc+bop", "tpc+bop"},
		{"shunt+bop", "shunt+bop"},
		{"tpc+ghb:entries=512", "tpc+ghb-pc/dc:entries=512"},
	}
	for _, c := range cases {
		n, err := ByName(c.spec)
		if err != nil {
			t.Errorf("ByName(%q): %v", c.spec, err)
			continue
		}
		if n.Name != c.want {
			t.Errorf("ByName(%q).Name = %q, want %q", c.spec, n.Name, c.want)
		}
		if c.want == "none" {
			if n.Factory != nil {
				t.Errorf("ByName(%q): baseline must have nil factory", c.spec)
			}
		} else if n.Factory == nil {
			t.Errorf("ByName(%q): nil factory", c.spec)
		}
	}
}

// TestByNameNormalizationIsCacheIdentity: two spellings of the same
// configuration must normalize to one name, since the runner memoizes on it.
func TestByNameNormalizationIsCacheIdentity(t *testing.T) {
	a := MustByName("ghb")
	b := MustByName("ghb-pc/dc:degree=4,entries=256")
	if a.Name != b.Name {
		t.Errorf("equivalent specs normalize differently: %q vs %q", a.Name, b.Name)
	}
}

func TestByNameErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantSub string
	}{
		{"bopp", `did you mean "bop"`},
		{"gbh", `did you mean "ghb"`},
		{"ghb:entries=abc", "positive integer"},
		{"ghb:entries=0", "positive integer"},
		{"ghb:bogus=3", `no parameter "bogus"`},
		{"ghb:entries", "malformed parameter"},
		{"tpc:dest=l2", "does not accept dest"}, // tpc has a fixed destination
		{"tpc+none", "baseline"},
		{"shunt+none", "baseline"},
		{"tpc+bopp", `did you mean "bop"`},
	}
	for _, c := range cases {
		_, err := ByName(c.spec)
		if err == nil {
			t.Errorf("ByName(%q): expected error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ByName(%q) error %q does not mention %q", c.spec, err, c.wantSub)
		}
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName on an unknown name must panic")
		}
	}()
	MustByName("definitely-not-registered")
}

func TestListCoversLineups(t *testing.T) {
	infos := List()
	byName := map[string]Info{}
	for _, inf := range infos {
		byName[inf.Name] = inf
	}
	// Every Monolithic/AllEvaluated member must be listable and resolvable.
	for _, n := range AllEvaluated() {
		base, _, _ := strings.Cut(n.Name, ":")
		if _, ok := byName[base]; !ok {
			t.Errorf("evaluated prefetcher %q missing from List()", base)
		}
		if _, err := ByName(n.Name); err != nil {
			t.Errorf("ByName(%q) (its own normalized name): %v", n.Name, err)
		}
	}
	// The seven mono entries lead the listing, in Table II order.
	wantLead := []string{"ghb-pc/dc", "fdp", "vldp", "spp", "bop", "ampm", "sms"}
	for i, want := range wantLead {
		if infos[i].Name != want {
			t.Errorf("List()[%d] = %q, want %q (mono lineup first)", i, infos[i].Name, want)
		}
	}
	if ghb := byName["ghb-pc/dc"]; len(ghb.Aliases) == 0 || ghb.Aliases[0] != "ghb" {
		t.Errorf("ghb-pc/dc should list alias ghb, got %v", ghb.Aliases)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"abc", "abc", 0}, {"abc", "abd", 1},
		{"bop", "bopp", 1}, {"gbh", "ghb", 2}, {"kitten", "sitting", 3},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
