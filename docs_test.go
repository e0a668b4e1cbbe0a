package dynq

import (
	"go/types"
	"os"
	"regexp"
	"testing"
)

// docMember matches a Type.Member reference, with an optional dynq. or netq.
// qualifier, that no identifier or dot runs into from the left.
var docMember = regexp.MustCompile(`(?:^|[^.\w])(?:(dynq|netq)\.)?([A-Z]\w*)\.([A-Za-z_]\w*)`)

// TestDocsNameLiveCode holds README.md's backticked references to the
// library to the code: every Type.Member in a code span whose Type is an
// exported type of dynq or netq must name a field or method of that type.
func TestDocsNameLiveCode(t *testing.T) {
	sc := newReachScan()
	pkgs := make(map[string]*types.Package)
	for _, name := range []string{"dynq", "netq"} {
		path := modulePath
		if name != "dynq" {
			path += "/" + name
		}
		p, err := sc.load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[name] = p.pkg
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range regexp.MustCompile("`[^`\n]+`").FindAll(readme, -1) {
		for _, m := range docMember.FindAllSubmatch(span, -1) {
			qual, typ, member := string(m[1]), string(m[2]), string(m[3])
			var found, named bool
			for _, name := range []string{"dynq", "netq"} {
				if qual != "" && qual != name {
					continue
				}
				tn, ok := pkgs[name].Scope().Lookup(typ).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				named = true
				obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkgs[name], member)
				found = found || obj != nil
			}
			if named && !found {
				t.Errorf("README.md names %s.%s, which is not a field or method of %s", typ, member, typ)
			}
		}
	}
}
