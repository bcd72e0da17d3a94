package osmem

import "testing"

// TestTallyFollowsSharingCredits holds a tally to its members' USS
// through the page-sharing transitions a member does not see: a
// sibling outside the tally maps the member's library pages (1→2: the
// member's share and the tally drop), then dies (2→1: both rise back),
// Machine.Audit finds a drifted sum, and a member destroyed while
// still joined leaves the tally.
func TestTallyFollowsSharingCredits(t *testing.T) {
	m := NewMachine()
	lib := m.File("libshared.so", 64*PageSize)
	member := m.NewAddressSpace("member")
	member.MmapFile("libshared.so", lib, 0, 64).Touch(0, 64, false)
	member.MmapAnon("heap", 16*PageSize).Touch(0, 16, true)
	var tl Tally
	tl.Join(member)
	check := func(step string, want int64) {
		t.Helper()
		if tl.Bytes() != member.USS() || tl.Bytes() != want*PageSize {
			t.Fatalf("%s: tally %d bytes, member USS %d, want %d pages", step, tl.Bytes(), member.USS(), want)
		}
		if bad := m.Audit(); len(bad) != 0 {
			t.Fatalf("%s: audit: %v", step, bad)
		}
	}
	check("joined", 80)
	sibling := m.NewAddressSpace("sibling")
	sibling.MmapFile("libshared.so", lib, 16, 32).Touch(0, 32, false)
	check("sibling maps 32 pages", 48)
	m.Destroy(sibling)
	check("sibling destroyed", 80)
	if !tl.Has(member) || tl.Len() != 1 {
		t.Fatal("member left the tally")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("joining a member twice did not panic")
			}
		}()
		tl.Join(member)
	}()
	tl.pages++ // a drifted sum
	if bad := m.Audit(); len(bad) != 1 {
		t.Fatalf("audit of a drifted tally: %v, want one finding", bad)
	}
	tl.pages--
	m.Destroy(member)
	if tl.Has(member) || tl.Len() != 0 || tl.Bytes() != 0 {
		t.Fatalf("destroyed member still counted: len %d, %d bytes", tl.Len(), tl.Bytes())
	}
}
