package checkpoint

import (
	"math"
	"reflect"
	"testing"
)

// sampleSnapshot exercises the awkward corners of the wire format: the
// non-finite floats gob must round-trip bit-exactly (+Inf CB budget,
// −Inf pre-first-tick control timestamp) and every nested section.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Version:       Version,
		SimTimeS:      301,
		Step:          301,
		PolicyName:    "sprintcon",
		ScenarioSum:   0xdeadbeefcafef00d,
		HasController: true,
		Controller: ControllerState{
			CapturedAtS:    301,
			Mode:           1,
			EverNearTrip:   true,
			FailSafeUntilS: math.Inf(-1),
			LastCtlS:       math.Inf(-1),
			CurPCbW:        math.Inf(1),
			CurPBatchW:     1234.5,
			CmdFreqsGHz:    []float64{1.2, 2.7, 2.7},
			KModel:         11.5,
			PrevPfbW:       2000,
			HavePrev:       true,
			PIIntegral:     -3.25,
			UPSTrimW:       12,
			InvFreqBounds:  2,
		},
		Plant: PlantState{
			Engine: EngineState{
				OutageS:         0,
				ControlledTicks: 300,
				OverTicks:       3,
				TrackErrSum:     19.5,
				EventSeq:        7,
				Snap: SnapState{
					NowS:           301,
					DtS:            1,
					MeasuredTotalW: 3800.25,
					UPSSoC:         0.83,
				},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	b, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual compares the non-finite floats by bit pattern semantics
	// we need here: Inf==Inf holds, and the sample contains no NaN (gob
	// round-trips NaN too, but DeepEqual would report it unequal).
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-header", func(b []byte) []byte { return b[:10] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"version-skew", func(b []byte) []byte { b[7] = 99; return b }},
		{"length-lies", func(b []byte) []byte { b[11] ^= 0x01; return b }},
		{"payload-bit-flip", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"crc-bit-flip", func(b []byte) []byte { b[13] ^= 0x40; return b }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xAA, 0xBB) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), good...))
			if s, err := Decode(b); err == nil {
				t.Fatalf("corrupt input decoded: %+v", s)
			}
		})
	}
}

func TestDecodeRejectsInvalidFields(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Snapshot)
	}{
		{"time-nan", func(s *Snapshot) { s.SimTimeS = math.NaN() }},
		{"time-negative", func(s *Snapshot) { s.SimTimeS = -1 }},
		{"step-negative", func(s *Snapshot) { s.Step = -1 }},
		{"counters-negative", func(s *Snapshot) { s.Plant.Engine.CBTrips = -1 }},
		{"over-exceeds-controlled", func(s *Snapshot) { s.Plant.Engine.OverTicks = 1000 }},
		{"trackerr-nan", func(s *Snapshot) { s.Plant.Engine.TrackErrSum = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sampleSnapshot()
			tc.mut(s)
			// Encode does not validate (it serializes what it is given);
			// Decode must refuse to hand the state back.
			b, err := Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := Decode(b); err == nil {
				t.Fatalf("invalid snapshot decoded: %+v", got)
			}
		})
	}
}

func TestFileStoreAtomicRoundTrip(t *testing.T) {
	path := t.TempDir() + "/run.ckpt"
	fs := NewFileStore(path)

	// Absent file: (nil, nil), not an error.
	if s, err := fs.Latest(); s != nil || err != nil {
		t.Fatalf("Latest on absent file: %v, %v", s, err)
	}

	want := sampleSnapshot()
	n, err := fs.Save(want)
	if err != nil {
		t.Fatal(err)
	}
	if n <= headerLen {
		t.Fatalf("Save reported %d bytes", n)
	}
	got, err := fs.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("file round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}

	// A second Save replaces the first atomically.
	want2 := sampleSnapshot()
	want2.SimTimeS, want2.Step = 302, 302
	if _, err := fs.Save(want2); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Step != 302 {
		t.Fatalf("second save not visible: step %d", got2.Step)
	}
}
