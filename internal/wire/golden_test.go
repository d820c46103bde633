package wire_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"cycledger/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encoding.golden from this build's encoder")

// TestEncodingGolden pins the wire format byte for byte: the encoding of
// every fixture — both certificate forms in every carrier, both eviction
// evidence forms — must equal the committed golden file, one "type hex" line
// per fixture in fixtures() order. The file was generated by the encoder as
// it stood before the per-type layouts replaced the hand-written encode and
// decode switches; regenerate it (-update) only for a deliberate format
// change, which is also a re-baseline of every traffic figure. A line's type
// column is goldenType's name for the fixture.
func TestEncodingGolden(t *testing.T) {
	var got bytes.Buffer
	for _, v := range fixtures() {
		enc, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("Encode %T: %v", v, err)
		}
		fmt.Fprintf(&got, "%s %x\n", goldenType(v), enc)
	}
	const path = "testdata/encoding.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d fixtures, golden file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("fixture %d encodes differently:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}
}

// pointerShaped names the payloads that became pointers after the golden
// file was written, by the value type its lines name: their tags and bytes
// did not move.
var pointerShaped = map[string]string{
	"*protocol.IntraPayload":   "protocol.IntraPayload",
	"*protocol.InterPayload":   "protocol.InterPayload",
	"*protocol.IntraResultMsg": "protocol.IntraResultMsg",
	"*protocol.ScoreResultMsg": "protocol.ScoreResultMsg",
	"*protocol.InterFwdMsg":    "protocol.InterFwdMsg",
	"*protocol.InterResultMsg": "protocol.InterResultMsg",
}

// goldenType is the type a fixture's golden line names: its %T, but for
// the pointer-shaped payloads, which keep their value type's name.
func goldenType(v any) string {
	name := fmt.Sprintf("%T", v)
	if old, ok := pointerShaped[name]; ok {
		return old
	}
	return name
}
