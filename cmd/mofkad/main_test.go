package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taskprov/internal/mofka"
)

// TestOpenLogRefusesWhatIsNoLog: no -data-dir, a path that does not exist and
// a directory without a log are refused, each naming what is wrong, and the
// missing path is not created; a broker's data dir opens.
func TestOpenLogRefusesWhatIsNoLog(t *testing.T) {
	tmp := t.TempDir()
	typo := filepath.Join(tmp, "typo")
	for _, tc := range []struct{ dir, want string }{
		{"", "-data-dir is required"},
		{typo, typo + " is not an event log"},
		{tmp, tmp + " is not an event log"},
	} {
		if _, err := openLog(tc.dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("openLog(%q) = %v, want an error containing %q", tc.dir, err, tc.want)
		}
	}
	if _, err := os.Stat(typo); !os.IsNotExist(err) {
		t.Fatalf("refusing %s created it (%v)", typo, err)
	}

	dir := filepath.Join(tmp, "log")
	b, err := mofka.NewDurableBroker(mofka.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(mofka.TopicConfig{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	served, err := openLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if topics := served.Topics(); len(topics) != 1 || topics[0] != "t" {
		t.Fatalf("served topics %v, want [t]", topics)
	}
}
