package tracefile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
)

// sampleFingerprint pins the canonical stream fingerprint of the
// checked-in ChampSim fixture (testdata/sample.champsim.gz, regenerated
// deterministically by testdata/gen_sample.go). CI asserts the same
// value through pftrace info -json; testdata/sample.fingerprint holds
// it for the workflow. Update ONLY for an intentional change to the
// fixture or the converter's record mapping, and say so in the commit
// message.
const sampleFingerprint = "86624318b5d20ccc0d4e9387f0ccc86ea36e3971182f1b5dc7e09abd3fbce092"

// sampleChunks4K pins the per-chunk payload sha256s of the fixture
// converted at 4 KiB chunks: the exact file bytes, not just the stream
// identity.
var sampleChunks4K = []string{
	"bfc841e117d9f2a8c77e6a7316409072065711b0550027bcd004c206eb7d7bab",
	"0f3ee5cce23dc1976805445f4929c62d8f05fe46de79c57233db7354f104280e",
	"a8ef3635877bef809e827e2c1a06b8c80b6e2b34096aa6d841e339a514d61d60",
	"3ac6363e7882dccea4ececa8ed5681f4c74144fa79d86e706392650670727941",
	"f8c895836192f3f15071ce55ce431a2559f6c0061df460b87382717654ac6411",
}

// convertSample converts the checked-in fixture at the given chunk size.
func convertSample(t testing.TB, chunkBytes int) (ConvertStats, []byte) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "sample.champsim.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }() // read-only
	src, err := MaybeGzip(f)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	st, err := ConvertChampSim(src, &out, WriterOptions{ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	return st, out.Bytes()
}

func TestSampleFixtureConvertPinned(t *testing.T) {
	st, raw := convertSample(t, 0)
	want := ConvertStats{
		Instructions: 3000, Records: 3000,
		Loads: 1000, Stores: 500, Branches: 500, Taken: 490,
	}
	if st.Instructions != want.Instructions || st.Records != want.Records ||
		st.Loads != want.Loads || st.Stores != want.Stores ||
		st.Branches != want.Branches || st.Taken != want.Taken {
		t.Fatalf("stats = %+v, want counts %+v", st, want)
	}
	if st.Fingerprint != sampleFingerprint {
		t.Fatalf("fingerprint = %s, want %s", st.Fingerprint, sampleFingerprint)
	}
	if len(st.Chunks) != 1 {
		t.Fatalf("default chunking produced %d chunks, want 1", len(st.Chunks))
	}

	// The converted stream must decode cleanly and stay inside the isa
	// contract (every record valid, PCs aligned).
	recs, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != st.Records {
		t.Fatalf("decoded %d records, stats say %d", len(recs), st.Records)
	}
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}

	// The fingerprint in testdata/sample.fingerprint (what CI greps for)
	// must match the pinned constant.
	pin, err := os.ReadFile(filepath.Join("testdata", "sample.fingerprint"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(pin)); got != sampleFingerprint {
		t.Fatalf("testdata/sample.fingerprint = %s, want %s", got, sampleFingerprint)
	}
}

func TestSampleFixtureChunkFingerprintsPinned(t *testing.T) {
	st, raw := convertSample(t, 4096)
	if st.Fingerprint != sampleFingerprint {
		t.Fatalf("4 KiB-chunk fingerprint = %s, want %s (must be chunk-size independent)", st.Fingerprint, sampleFingerprint)
	}
	if len(st.Chunks) != len(sampleChunks4K) {
		t.Fatalf("%d chunks, want %d", len(st.Chunks), len(sampleChunks4K))
	}
	for i, c := range st.Chunks {
		if c.SHA256 != sampleChunks4K[i] {
			t.Fatalf("chunk %d sha256 = %s, want %s", i, c.SHA256, sampleChunks4K[i])
		}
	}
	// Inspect must agree with the writer's descriptors byte for byte.
	info, err := Inspect(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != sampleFingerprint {
		t.Fatalf("Inspect fingerprint = %s, want %s", info.Fingerprint, sampleFingerprint)
	}
	for i, c := range info.Chunks {
		if c != st.Chunks[i] {
			t.Fatalf("chunk %d: Inspect %+v, writer %+v", i, c, st.Chunks[i])
		}
	}
}

// TestSampleFixtureLookaheadTargets spot-checks the converter's branch
// handling on the fixture: every branch record's target is the next
// instruction's (aligned) PC — the loop head when taken, the fall-through
// when not.
func TestSampleFixtureLookaheadTargets(t *testing.T) {
	_, raw := convertSample(t, 0)
	recs, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var taken, notTaken uint64
	for i, r := range recs {
		if r.Op != isa.OpBranch {
			continue
		}
		if i+1 < len(recs) && r.Addr != recs[i+1].PC {
			t.Fatalf("branch %d: target %#x, next PC %#x", i, r.Addr, recs[i+1].PC)
		}
		if r.Taken {
			taken++
		} else {
			notTaken++
		}
	}
	if taken != 490 || notTaken != 10 {
		t.Fatalf("taken/not-taken = %d/%d, want 490/10", taken, notTaken)
	}
}
