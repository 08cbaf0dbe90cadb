package value

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int", KindFloat: "float",
		KindString: "string", KindTime: "time", KindDuration: "duration",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"int", KindInt}, {"INTEGER", KindInt}, {"bigint", KindInt},
		{"string", KindString}, {"TEXT", KindString}, {"varchar", KindString},
		{"float", KindFloat}, {"double", KindFloat},
		{"bool", KindBool}, {"boolean", KindBool},
		{"time", KindTime}, {"timestamp", KindTime},
		{"duration", KindDuration}, {"interval", KindDuration},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	now := time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC)
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool roundtrip broken")
	}
	if Int(42).AsInt() != 42 {
		t.Error("Int roundtrip broken")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float roundtrip broken")
	}
	if Str("hi").AsString() != "hi" {
		t.Error("Str roundtrip broken")
	}
	if !Time(now).AsTime().Equal(now) {
		t.Error("Time roundtrip broken")
	}
	if Duration(3*time.Hour).AsDuration() != 3*time.Hour {
		t.Error("Duration roundtrip broken")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull broken")
	}
	if Float(7.9).AsInt() != 7 {
		t.Error("AsInt truncation broken")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("AsFloat widening broken")
	}
}

func TestCompareOrdering(t *testing.T) {
	now := time.Now()
	// Ascending chain across kinds and within kinds.
	chain := []Value{
		Null,
		Bool(false),
		Bool(true), // == Int(1) numerically; strictly after 0
		Int(2),
		Float(2.5),
		Int(3),
		Duration(4), // 4ns, numeric rank
		Str("a"),
		Str("b"),
		Time(now),
		Time(now.Add(time.Second)),
	}
	for i := range chain {
		for j := range chain {
			got := Compare(chain[i], chain[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", chain[i], chain[j], got, want)
			}
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Compare(Bool(true), Int(1)) != 0 {
		t.Error("Bool(true) should equal Int(1) numerically")
	}
	if !Less(Float(1.5), Int(2)) {
		t.Error("1.5 < 2 expected")
	}
	if Compare(Float(math.NaN()), Float(math.NaN())) != 0 {
		t.Error("NaN should equal NaN for ordering totality")
	}
	if !Less(Float(math.NaN()), Float(0)) {
		t.Error("NaN should sort before numbers")
	}
}

// randomValue generates an arbitrary value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(7) {
	case 0:
		return Null
	case 1:
		return Bool(r.Intn(2) == 1)
	case 2:
		return Int(r.Int63n(1000) - 500)
	case 3:
		return Float(r.Float64()*100 - 50)
	case 4:
		letters := []byte("abcdefg")
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return Str(string(b))
	case 5:
		return Time(time.Unix(r.Int63n(1e9), 0))
	default:
		return Duration(time.Duration(r.Int63n(1e12)))
	}
}

type valueGen struct{ V Value }

func (valueGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueGen{V: randomValue(r)})
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	// Antisymmetry and transitivity-consistency via sign checks.
	antisym := func(a, b valueGen) bool {
		return Compare(a.V, b.V) == -Compare(b.V, a.V)
	}
	if err := quick.Check(antisym, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c valueGen) bool {
		x, y, z := a.V, b.V, c.V
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(trans, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	reflexive := func(a valueGen) bool { return Compare(a.V, a.V) == 0 }
	if err := quick.Check(reflexive, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	prop := func(a, b valueGen) bool {
		if Equal(a.V, b.V) {
			return a.V.Hash() == b.V.Hash()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	// Cross-kind numeric equality must hash equal.
	if Int(2).Hash() != Float(2.0).Hash() {
		t.Error("Int(2) and Float(2.0) must hash equal")
	}
	if Bool(true).Hash() != Int(1).Hash() {
		t.Error("Bool(true) and Int(1) must hash equal")
	}
}

func TestStringAndParseRoundtrip(t *testing.T) {
	vals := []Value{
		Bool(true), Bool(false), Int(-7), Int(0), Float(3.25),
		Str("hello world"), Time(time.Date(2020, 5, 4, 3, 2, 1, 0, time.UTC)),
		Duration(90 * time.Minute), Null,
	}
	for _, v := range vals {
		got, err := Parse(v.Kind(), v.String())
		if err != nil {
			t.Errorf("Parse(%v, %q): %v", v.Kind(), v.String(), err)
			continue
		}
		if !Equal(got, v) {
			t.Errorf("roundtrip %v -> %q -> %v", v, v.String(), got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		k Kind
		s string
	}{
		{KindInt, "x"}, {KindFloat, "x"}, {KindBool, "maybe"},
		{KindTime, "not a time"}, {KindDuration, "5 parsecs"}, {KindNull, "something"},
	}
	for _, tc := range bad {
		if _, err := Parse(tc.k, tc.s); err == nil {
			t.Errorf("Parse(%v, %q) should fail", tc.k, tc.s)
		}
	}
}

func TestParseTimeLayouts(t *testing.T) {
	for _, s := range []string{"2021-03-04T05:06:07Z", "2021-03-04 05:06:07", "2021-03-04"} {
		v, err := Parse(KindTime, s)
		if err != nil {
			t.Errorf("Parse time %q: %v", s, err)
			continue
		}
		if v.AsTime().Year() != 2021 {
			t.Errorf("Parse time %q: got %v", s, v)
		}
	}
}

func TestLiteral(t *testing.T) {
	if got := Str("o'brien").Literal(); got != "'o''brien'" {
		t.Errorf("string literal = %q", got)
	}
	if got := Int(5).Literal(); got != "5" {
		t.Errorf("int literal = %q", got)
	}
	if got := Duration(time.Hour).Literal(); got != "d'1h0m0s'" {
		t.Errorf("duration literal = %q", got)
	}
	tm := time.Date(1991, 1, 2, 0, 0, 0, 0, time.UTC)
	if got := Time(tm).Literal(); got != "t'1991-01-02T00:00:00Z'" {
		t.Errorf("time literal = %q", got)
	}
}

// TestAppendLiteralMatchesLiteral: the buffer form renders every kind to
// exactly Literal's bytes — group keys built either way must collide
// identically — and appends after existing content.
func TestAppendLiteralMatchesLiteral(t *testing.T) {
	cases := []Value{
		Null,
		Bool(true), Bool(false),
		Int(0), Int(-7), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1.5), Float(-2.25e-300), Float(1e21),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Str(""), Str("plain"), Str("o'brien"), Str("''"), Str("'"), Str("a\x00b"), Str("ünï'cödé"),
		Time(time.Date(1991, 1, 2, 0, 0, 0, 0, time.UTC)),
		Time(time.Date(2024, 2, 29, 23, 59, 59, 123456789, time.UTC)),
		Time(time.Date(1969, 12, 31, 12, 0, 0, 0, time.FixedZone("x", -5*3600))),
		Duration(0), Duration(time.Hour), Duration(-90 * time.Second), Duration(1500 * time.Microsecond),
	}
	for _, v := range cases {
		want := v.Literal()
		if got := string(v.AppendLiteral(nil)); got != want {
			t.Errorf("%v (%v): AppendLiteral = %q, Literal = %q", v, v.Kind(), got, want)
		}
		if got := string(v.AppendLiteral([]byte("k\x00"))); got != "k\x00"+want {
			t.Errorf("%v (%v): AppendLiteral onto a prefix = %q", v, v.Kind(), got)
		}
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(Int(3), KindFloat)
	if err != nil || v.Kind() != KindFloat || v.AsFloat() != 3.0 {
		t.Errorf("Coerce int->float: %v, %v", v, err)
	}
	if _, err := Coerce(Str("x"), KindInt); err == nil {
		t.Error("Coerce string->int should fail")
	}
	if v, err := Coerce(Null, KindInt); err != nil || !v.IsNull() {
		t.Error("Coerce null should pass through")
	}
	if !CoercibleTo(KindInt, KindFloat) || CoercibleTo(KindFloat, KindInt) {
		t.Error("CoercibleTo asymmetry broken")
	}
}

func TestNumeric(t *testing.T) {
	if !Int(1).Numeric() || !Float(1).Numeric() || !Bool(true).Numeric() || !Duration(1).Numeric() {
		t.Error("numeric kinds misreported")
	}
	if Str("1").Numeric() || Null.Numeric() || Time(time.Now()).Numeric() {
		t.Error("non-numeric kinds misreported")
	}
}
