package taskprov_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"taskprov/internal/core"
)

// TestEveryKnobIsRecorded holds metadata.json to "a run is rebuilt from its
// record alone". Every field of core.SessionConfig, nested ones included,
// given a value of its own, comes back from SessionConfig.Metadata → the
// encoded metadata.json → core.ConfigFromMetadata — one field at a time, and
// all of them at once, so no two share a place in the record — or is listed
// in unrecorded with the reason it is not part of the record. A knob added
// without its place in the record fails here, not in a resume or a rerun
// that rebuilds the run without it.
func TestEveryKnobIsRecorded(t *testing.T) {
	base := core.DefaultSessionConfig("job-record", 7)
	roundTrip := func(cfg core.SessionConfig) core.SessionConfig {
		t.Helper()
		m, err := core.DecodeMetadata(core.EncodeMetadata(cfg.Metadata("toy")))
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.ConfigFromMetadata(m)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	all := base
	var recorded []knob
	declared := map[string]bool{}
	for _, k := range knobs(reflect.TypeOf(base), "", nil) {
		declared[k.path] = true
		cfg := base
		k.change(t, &cfg)
		back := roundTrip(cfg)
		_, listed := unrecorded[k.path]
		switch kept := reflect.DeepEqual(k.get(back), k.get(cfg)); {
		case kept && listed:
			t.Errorf("unrecorded lists %s, but it survives metadata.json now; drop the entry", k.path)
		case !kept && !listed:
			t.Errorf("%s = %v reads back from metadata.json as %v: record it in SessionConfig.Metadata and read it back in core.ConfigFromMetadata, or list it in unrecorded with the reason", k.path, k.get(cfg), k.get(back))
		case kept:
			k.change(t, &all)
			recorded = append(recorded, k)
		}
	}
	back := roundTrip(all)
	for _, k := range recorded {
		if got, want := k.get(back), k.get(all); !reflect.DeepEqual(got, want) {
			t.Errorf("with every knob changed at once, %s reads back as %v, want %v: two knobs share a place in the record", k.path, got, want)
		}
	}
	for path, reason := range unrecorded {
		if !declared[path] {
			t.Errorf("unrecorded lists %s, which is not a SessionConfig field; drop the entry", path)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("unrecorded lists %s without a reason", path)
		}
	}
}

// unrecorded is the allowlist: SessionConfig fields a run's record leaves to
// whoever reruns it, each with the reason. None of them changes what the run
// stores.
var unrecorded = map[string]string{
	"MofkaDataDir":    "where the event log is written: the record names it (instrumentation.mofka_data_dir), but a resume or a rerun writes where its caller says",
	"MofkaSyncPolicy": "how often the event log is fsynced, which stores the same bytes under every policy (TestSyncPolicyLeavesSameBytes); taskprov resume takes -fsync",
	"ResumeFrom":      "set by the resume of a run, never by the run it continues",
	"LiveHTTPAddr":    "a deployment address: serving the live endpoint stores nothing",
}

// knob is one scalar field of core.SessionConfig, by its dotted path.
type knob struct {
	path  string
	index []int
}

// knobs lists the scalar fields of the struct type t, descending into the
// structs it nests.
func knobs(t reflect.Type, prefix string, index []int) []knob {
	var out []knob
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		k := knob{prefix + f.Name, append(slices.Clip(index), i)}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, knobs(f.Type, k.path+".", k.index)...)
		} else {
			out = append(out, k)
		}
	}
	return out
}

func (k knob) get(cfg core.SessionConfig) any {
	return reflect.ValueOf(cfg).FieldByIndex(k.index).Interface()
}

// change gives the knob of cfg a value other than the one it has.
func (k knob) change(t *testing.T, cfg *core.SessionConfig) {
	t.Helper()
	v := reflect.ValueOf(cfg).Elem().FieldByIndex(k.index)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(2*v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(2*v.Uint() + 3)
	case reflect.Float64:
		v.SetFloat(1.5*v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "-changed")
	default:
		t.Fatalf("%s is a %s: teach TestEveryKnobIsRecorded to change it", k.path, v.Kind())
	}
}
