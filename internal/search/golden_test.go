package search

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"switchsynth/internal/cases"
	"switchsynth/internal/planio"
	"switchsynth/internal/spec"
)

// goldenNodes freezes the search tree: the number of nodes the
// sequential DFS visits on each instance. Bookkeeping changes (the
// presorted candidate tables, the LIFO undo log, the incremental
// clockwise check) kept every count exactly; a change that means to alter
// the tree must re-record them. The junction cover in the node bound
// re-recorded them last: an admissible bound only removes subtrees
// without a leaf the search would take, so no count may rise and
// goldenPlans must not move.
//
// The instances are the Table 4.1/4.3 cases under every binding policy
// and the first 30 cases of `casegen -n 90 -seed 42` and `casegen -fpva
// -n 90 -seed 42`, keeping those that solve in at most 300k nodes so the
// suite stays fast under the race detector.
var goldenNodes = map[string]int64{
	"chip-sw1/fixed":           10,
	"chip-sw1/clockwise":       135,
	"nucleic-acid/fixed":       2,
	"nucleic-acid/clockwise":   10,
	"nucleic-acid/unfixed":     158,
	"mrna-isolation/fixed":     5,
	"mrna-isolation/clockwise": 26,
	"chip-sw2/fixed":           4008,
	"kinase-sw1/fixed":         11,
	"kinase-sw1/clockwise":     120,
	"kinase-sw1/unfixed":       127,
	"kinase-sw2/fixed":         117,
	"kinase-sw2/clockwise":     376,
	"kinase-sw2/unfixed":       705,
	"artificial-00":            19,
	"artificial-01":            4744,
	"artificial-02":            172,
	"artificial-03":            4,
	"artificial-04":            47,
	"artificial-05":            745,
	"artificial-06":            11,
	"artificial-07":            399,
	"artificial-08":            226,
	"artificial-09":            16,
	"artificial-10":            51,
	"artificial-11":            233,
	"artificial-12":            2,
	"artificial-13":            317,
	"artificial-14":            88,
	"artificial-15":            33,
	"artificial-16":            98,
	"artificial-17":            1011,
	"artificial-18":            8,
	"artificial-19":            115,
	"artificial-20":            30,
	"artificial-21":            104,
	"artificial-22":            17,
	"artificial-24":            8,
	"artificial-25":            117,
	"artificial-26":            167,
	"artificial-27":            7,
	"artificial-28":            168,
	"fpva-00":                  48,
	"fpva-01":                  259,
	"fpva-03":                  2,
	"fpva-04":                  111,
	"fpva-05":                  585,
	"fpva-06":                  2,
	"fpva-07":                  568,
	"fpva-08":                  162,
	"fpva-09":                  2,
	"fpva-10":                  1255,
	"fpva-12":                  6,
	"fpva-13":                  111,
	"fpva-14":                  11157,
	"fpva-15":                  10,
	"fpva-16":                  214,
	"fpva-17":                  2597,
	"fpva-18":                  17,
	"fpva-19":                  125,
	"fpva-20":                  580,
	"fpva-21":                  3,
	"fpva-22":                  9971,
	"fpva-23":                  117,
	"fpva-24":                  4,
	"fpva-25":                  448,
	"fpva-27":                  181,
	"fpva-28":                  494,
	"fpva-29":                  37,
}

// goldenPlans pins what the frozen tree emits: the SHA-256 of each golden
// instance's sequential plan frame (planio binary encoding, or the
// "no-solution" marker for a proven infeasibility) and the number of
// incumbents its sequential solve publishes through Options.OnIncumbent.
// Recorded alongside goldenNodes so that a kernel change which kept the
// node count but moved to a different equal-cost optimum, or reached the
// same optimum through a different incumbent sequence, still fails.
type goldenDigest struct {
	planSHA256 string
	incumbents int
}

var goldenPlans = map[string]goldenDigest{
	"artificial-00":            {"b40209f1260e6b034d0e5d665631d7404de2b043a35352d42f5ebbde4efc4c0c", 3},
	"artificial-01":            {"f8dc32e22f85561b6e84a5ab29c0b0b03d91b8804af7165ac263b41754cbc984", 3},
	"artificial-02":            {"1f5c4e7eef2d4b2f2b3b91ca2d4885864f2d10d8c13aba1e6de3bb5a04df6d01", 1},
	"artificial-03":            {"81c89bd45b6e42d18e64767a2680909122ef97008d7761f112c670b224cc87cb", 1},
	"artificial-04":            {"6165a509fcb04e48ee869c6b3de0ab7e1725b761643e8843fe9887f4d93aa321", 2},
	"artificial-05":            {"5c718a1e42cc86b874af31528b277e199b186c3ff8ce46257fcc340e85f34994", 1},
	"artificial-06":            {"5daba1ed7a539f9b20e19a6d750fb20f077824da7b2659b3e329a47965b420df", 1},
	"artificial-07":            {"95f7803160403b23a9051ed94a0e23553e187ad2bda47ed21a985c9e19f530f8", 1},
	"artificial-08":            {"69e19347e271284545520dc02b32f034adea449e12ef5bd11b517504db41a7a8", 3},
	"artificial-09":            {"01c215947c770b1c626e866b290d4f56793691738aa742e0c605096b7435829f", 1},
	"artificial-10":            {"36ff7bbda6139777215384665a012beffe6cb463fbe27c031868fcb51b716a32", 1},
	"artificial-11":            {"9ff8d9471574df70ea59cd14b96d9ba5b7f5c70c7086359be6f0f8d331bf96fc", 1},
	"artificial-12":            {"a9342387dc6584490078c19281892d11bc64c0ea98d6ed6c7104e2c709cf3f1d", 2},
	"artificial-13":            {"05c1d5465e2ddad8c9536c9451c184bff021e9bbb58fde9c32646386f53e6797", 1},
	"artificial-14":            {"f2f1d83d01aaacfb0ca1cb0a60846dab612fb42c42dac6e0f00d2273183c37b0", 1},
	"artificial-15":            {"45094feadc331885856780aecf31b96a296628f7a6cf4c66976761b73d72eef2", 1},
	"artificial-16":            {"4c1fab2260c8fd0c01bc1c4a131be5f73fcaa287d94931586bd09b13028af69a", 5},
	"artificial-17":            {"c7f9da4aa68a16189883e53be72fb1949469543b03d78c4b8931da6911570b9d", 1},
	"artificial-18":            {"f4f49336c177876359f92cd2fa2457601b7dd4d95da92618b9903d8568da68a8", 1},
	"artificial-19":            {"853bb5b508b244ecb631b356260a03da725c57f7e0432712031258af1231c38c", 1},
	"artificial-20":            {"1d2f9a8a24554cefa06d93212f8329dc6ff4c1700c1caa2da1d24d8a0b033379", 1},
	"artificial-21":            {"05ad8ee4704821ba613dce5508ec945d6acde132e4c04accd918dddabc3b75eb", 3},
	"artificial-22":            {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"artificial-24":            {"59d746910f5ba72c4e79692f8da3f359093d1c2cee4eca20a8cea97ee6ed9715", 1},
	"artificial-25":            {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"artificial-26":            {"20821d07db4e5b77ab8256cceca1c5d36603f1f759f44c40a846b5468b1f9205", 3},
	"artificial-27":            {"e46bdb8e0732039690cbb9d6ad48ef4abee9f8ca884c09da34b1155749b252f6", 3},
	"artificial-28":            {"8c660db7c0ddc0f5990859ea2d57eeb32203c6255834ea278639043d83c76d5c", 1},
	"chip-sw1/clockwise":       {"26688df95cd514451d9e98ba9b5f692aaee7d0f72ba0e9e1d385c95806db7311", 3},
	"chip-sw1/fixed":           {"a900edbc88277eda688e3f3e6e081324027e39310ee05cdc7b4af3dce86210f4", 1},
	"chip-sw2/fixed":           {"c2ed4387170fa5312af2142efc254246aef6529f0b09c0109a448c045c692139", 3},
	"fpva-00":                  {"73ddf0f28a49c801908530a133a10d00bc34d708b7687e2dbef7de476c617a63", 4},
	"fpva-01":                  {"a5f93e1c8ebf2fb6d8306845bf318686d0af333d6e8160e9f94bb8336c69828b", 1},
	"fpva-03":                  {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"fpva-04":                  {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"fpva-05":                  {"12ae68e108790e4affeeb55a89ad1f5e9f4410ab6880ab35231719c13b8e1c6a", 3},
	"fpva-06":                  {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"fpva-07":                  {"2e3301b2fee60d4f9d8c214ea96b120673e085c39a68bfb511a907a1cb6c7182", 1},
	"fpva-08":                  {"c1623b74fbc13679dfa211df0d53dc864d6bf3f479ef8121285350ba552acb6d", 2},
	"fpva-09":                  {"904a3bfca3c87d9c34a1d39cf13cfabf418406d64942ef2a9cd5d73d4666a265", 1},
	"fpva-10":                  {"16cdbec410336a19507ced01e282cb146d368aa0a6323765b68f0e743fa40f4d", 2},
	"fpva-12":                  {"b98a59bcc415e0e4de7844489e1f77e6242842bcf839e579aa400076f6b4e860", 1},
	"fpva-13":                  {"5147b2d96a129e74ae7a975f8c03e09df8da829375b132e7ed28350e4ee8b623", 1},
	"fpva-14":                  {"e8b2133904d688a15131c426c92487ef774ee71b1da0ce239b550a1f4b4b99f4", 1},
	"fpva-15":                  {"d36ba89d54abc1a07b4e84a109f95ba04c674bb662ef84d94c6942f36f7c42b5", 1},
	"fpva-16":                  {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"fpva-17":                  {"37a0b7da2365893b81ffe1ca6b7bb01b807048720cec50c49858beafac174db6", 1},
	"fpva-18":                  {"9ce7a976b5de091ff13e6b8fa5200cb61c895f38b94a2cfb0dfb74b8141b6661", 2},
	"fpva-19":                  {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"fpva-20":                  {"14d22fca20dbb07433e688174d788e4cad25954cba4a26a9cbe9716f7dd4b169", 1},
	"fpva-21":                  {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"fpva-22":                  {"af7829049ed7cf249684509aeea208a0f1200394fc2ff9591d9459abce80765a", 1},
	"fpva-23":                  {"030db6127b353bcb79d5f023934b004a445c520791998a4d49d2d96d6d5f7b32", 1},
	"fpva-24":                  {"3c563c5cd45a3e0081558b084fbfdaddf067139167d3bf603b6b52ba8ec93b44", 1},
	"fpva-25":                  {"edce4570b7bb766569774a3e6448e57d47bac74734d9fceb6c7594c54f024a4d", 2},
	"fpva-27":                  {"b58b26856379be2c3e048ff78f9f56b5fd3caf66ebffdc4196680e3698ecbe22", 1},
	"fpva-28":                  {"2ce045a93de7d1d0aaf6af2679dd2c17cf684da4e78ff5c7950ea3db024c9fd7", 1},
	"fpva-29":                  {"92e3ee7d32bdfa036004222d91c141ac096920c6fdfbcdc1a1010b971778eabd", 1},
	"kinase-sw1/clockwise":     {"d58afc715d95b562d25174e56c77e75c189b8cf918c14da35990dc0c58abcec8", 1},
	"kinase-sw1/fixed":         {"13078034bf7894943b98551f83245f2d130f824e67002c743de8872c00633449", 4},
	"kinase-sw1/unfixed":       {"e16c60ea6fa9cf8311f215964f9d04edad742d7bf61ba73e47d71a0463065ff8", 1},
	"kinase-sw2/clockwise":     {"646276d57813709f18d1e0469524e978a35251dd9288e1fe8cfb7b4c2aebddb4", 1},
	"kinase-sw2/fixed":         {"b1d6a2bb1bc5d9ff1fcc94fbdbdbd5a709508c490d1e88e0d33e29fc15a26418", 2},
	"kinase-sw2/unfixed":       {"322b51636f984c14a283ac9ef714c85c42a47b5bd987682ca568c09fd322fed1", 1},
	"mrna-isolation/clockwise": {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"mrna-isolation/fixed":     {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"nucleic-acid/clockwise":   {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"nucleic-acid/fixed":       {"5a9e02d1fabd98be01aafd18b332902c6028b59b40220034678583a1816265d6", 0},
	"nucleic-acid/unfixed":     {"338f67211503c3a90326364a955ab6dccfc8d610675e7842763f7d6d8ec75031", 1},
}

// goldenSpecs returns the frozen instance set keyed by name.
func goldenSpecs() map[string]*spec.Spec {
	out := map[string]*spec.Spec{}
	for _, c := range append(cases.Table41(), cases.Table43()...) {
		for _, b := range []spec.BindingPolicy{spec.Fixed, spec.Clockwise, spec.Unfixed} {
			sp := c.WithBinding(b)
			sp.Name = fmt.Sprintf("%s/%s", c.Spec.Name, b)
			out[sp.Name] = sp
		}
	}
	for _, c := range append(cases.Artificial(90, 42)[:30], cases.ArtificialFPVA(90, 42)[:30]...) {
		out[c.Spec.Name] = c.Spec
	}
	return out
}

// TestGoldenTree checks that the sequential search visits exactly the
// frozen node count on every golden instance, emits the frozen plan bytes
// after publishing the frozen number of incumbents, and that the plan is
// byte-identical at 1, 2 and 8 workers.
func TestGoldenTree(t *testing.T) {
	specs := goldenSpecs()
	for name, want := range goldenNodes {
		sp := specs[name]
		if sp == nil {
			t.Fatalf("golden instance %q is not in the instance set", name)
		}
		sw, pt, err := sp.SharedTopology()
		if err != nil {
			t.Fatal(err)
		}
		incumbents := 0
		s := newSolver(sp, sw, pt, Options{OnIncumbent: func(*spec.Result) { incumbents++ }})
		seqRes, seqErr := s.run()
		if s.nodes != want {
			t.Errorf("%s: sequential search visited %d nodes, golden tree has %d", name, s.nodes, want)
		}
		seqPlan := goldenPlan(t, name, seqRes, seqErr)
		gd, ok := goldenPlans[name]
		if !ok {
			t.Fatalf("golden instance %q has no recorded plan digest", name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(seqPlan)); got != gd.planSHA256 {
			t.Errorf("%s: sequential plan digest %s, golden plan has %s", name, got, gd.planSHA256)
		}
		if incumbents != gd.incumbents {
			t.Errorf("%s: sequential solve published %d incumbents, golden solve published %d",
				name, incumbents, gd.incumbents)
		}
		for _, w := range []int{1, 2, 8} {
			res, err := Solve(sp, Options{Workers: w})
			if got := goldenPlan(t, name, res, err); !bytes.Equal(got, seqPlan) {
				t.Errorf("%s: plan at %d workers differs from the sequential plan", name, w)
			}
		}
	}
}

// goldenPlan renders a solve outcome as comparable bytes: the binary plan
// frame of a proven plan, or a marker for a proven infeasibility.
func goldenPlan(t *testing.T, name string, res *spec.Result, err error) []byte {
	t.Helper()
	var nosol *spec.ErrNoSolution
	switch {
	case errors.As(err, &nosol):
		return []byte("no-solution")
	case err != nil:
		t.Fatalf("%s: %v", name, err)
	case !res.Proven:
		t.Fatalf("%s: plan not proven", name)
	}
	b, err := planio.EncodeBinary(res)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	return b
}
