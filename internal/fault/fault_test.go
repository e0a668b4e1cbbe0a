package fault

import (
	"os"
	"path/filepath"
	"testing"

	"dynq/internal/pager"
)

// recordSize matches the file layout: after two header slots, each page
// takes one record.
func TestRecordSizeMatchesFileLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s, err := pager.CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := s.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2*pager.PageSize + 2*recordSize); fi.Size() != want {
		t.Fatalf("a two-page file is %d bytes, want %d: recordSize is off", fi.Size(), want)
	}
}
