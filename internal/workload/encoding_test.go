package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGeneratedSceneEncodings pins the generator's output byte for byte:
// the sha256 of (*scene.Scene).Encode for a 2-frame, seed-1 scene of each
// of the nine paper cases and the two validation scenes. The encoding
// carries every texture and object name, each object's texture bindings
// in order, its dependency, and frame 1's camera jitter, so any change to
// the PRNG call sequence or to the names shows here.
func TestGeneratedSceneEncodings(t *testing.T) {
	for _, tc := range []struct{ name, sha256 string }{
		{"DM3-640", "500d0ed48202ad8f5373d1b14044d7e5f9cc438f8395f0ee04f5d08682b5454f"},
		{"DM3-1280", "abcd8d126b50c10de9242bbbe04a21e59602d6a0ad684e14521d7b894c1ebf4f"},
		{"DM3-1600", "8aff1791539e4b9e619f81f0abb08e7e2e836c52f072f77a2627c71d5a698990"},
		{"HL2-640", "f5ada70c1fdc30fb8a6d55a67421bb8fc1e0ad203d1385279fc34eb50a0f6324"},
		{"HL2-1280", "7f51787bd78fa3f3585452fa25efc22a7a1c9727b7c4cd76d6c1d2e42e66b802"},
		{"HL2-1600", "566364689548c01e976b31a28a10960c393e38c68dd9b641bfa1cd1ad6cd7ad9"},
		{"NFS", "ce10c3c3fe7061094d8544f770956d6fefdc3639ee76e4b6dd7465ab378c08dd"},
		{"UT3", "8b9e86c1bd8069b86681c550d085ce43a399482413d94155b94478438d7e591a"},
		{"WE", "9f9d9d6e1cd24c5d53584140da68240203c81116cdc4aa00f8f2294c72b769a6"},
		{"Sponza", "374985708fa853e8236400bb6193a925bfd16ca50881c7cebae868e195a9658e"},
		{"SanMiguel", "5a1f61fcc9147a7a1f0d25d2141d2803fb4bbafd805b3eef975d114eb1fbef82"},
	} {
		c, ok := CaseByName(tc.name)
		if !ok {
			sp := ValidationSpec(tc.name)
			c = Case{Name: tc.name, Spec: sp, Width: sp.Resolutions[0][0], Height: sp.Resolutions[0][1]}
		}
		h := sha256.New()
		if err := c.Spec.Generate(c.Width, c.Height, 2, 1).Encode(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
			t.Errorf("%s: scene encoding sha256 %s, want %s", tc.name, got, tc.sha256)
		}
	}
}
