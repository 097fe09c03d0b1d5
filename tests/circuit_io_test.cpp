#include <gtest/gtest.h>

#include "src/mpc/circuit_io.hpp"

namespace bobw {
namespace {

constexpr const char* kQuickstart = R"(# comment
circuit 4
a = input 0
b = input 1
c = input 2
d = input 3
s = add a b   # inline comment
t = add c d
y = mul s t
output y
)";

TEST(CircuitIo, ParsesQuickstart) {
  Circuit c = parse_circuit(kQuickstart);
  EXPECT_EQ(c.n_parties(), 4);
  EXPECT_EQ(c.mult_count(), 1);
  EXPECT_EQ(c.outputs().size(), 1u);
  EXPECT_EQ(c.eval_plain({Fp(3), Fp(4), Fp(5), Fp(6)}), Fp(77));
}

TEST(CircuitIo, AllOpsRoundTripThroughFormat) {
  Circuit c(3);
  int a = c.input(0), b = c.input(1), d = c.input(2);
  int s = c.add(a, b);
  int u = c.sub(s, d);
  int v = c.add_const(u, Fp(7));
  int w = c.mul_const(v, Fp(3));
  c.set_output(c.mul(w, s));
  c.add_output(v);
  std::string text = format_circuit(c);
  Circuit c2 = parse_circuit(text);
  EXPECT_EQ(c2.n_parties(), 3);
  EXPECT_EQ(c2.outputs().size(), 2u);
  std::vector<Fp> in{Fp(10), Fp(20), Fp(5)};
  EXPECT_EQ(c.eval_outputs(in), c2.eval_outputs(in));
  // And the format is a fixed point: format(parse(format(c))) == format(c).
  EXPECT_EQ(format_circuit(c2), text);
}

TEST(CircuitIo, MultiOutputParses) {
  Circuit c = parse_circuit("circuit 2\nx = input 0\ny = input 1\ns = add x y\noutput s x\n");
  EXPECT_EQ(c.outputs().size(), 2u);
  auto out = c.eval_outputs({Fp(4), Fp(5)});
  EXPECT_EQ(out[0], Fp(9));
  EXPECT_EQ(out[1], Fp(4));
}

struct BadCase {
  const char* text;
  const char* why;
};

// Without this gtest prints the two pointers as raw bytes, and ctest names
// each case after that printout, so every build got fresh names under ASLR.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.why; }

class CircuitIoRejects : public ::testing::TestWithParam<BadCase> {};

TEST_P(CircuitIoRejects, MalformedInput) {
  EXPECT_THROW(parse_circuit(GetParam().text), CircuitParseError) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CircuitIoRejects,
    ::testing::Values(
        BadCase{"", "empty file"},
        BadCase{"x = input 0\n", "missing header"},
        BadCase{"circuit 4\ncircuit 4\n", "duplicate header"},
        BadCase{"circuit 0\n", "zero parties"},
        BadCase{"circuit 4\noutput x\n", "unknown output wire"},
        BadCase{"circuit 4\nx = input 0\n", "no output"},
        BadCase{"circuit 4\nx = input 9\noutput x\n", "party out of range"},
        BadCase{"circuit 4\nx = input 0\nx = input 1\noutput x\n", "wire redefined"},
        BadCase{"circuit 4\nx = input 0\ny = frob x x\noutput y\n", "unknown op"},
        BadCase{"circuit 4\nx = input 0\ny = add x\noutput y\n", "operand count"},
        BadCase{"circuit 4\nx = input 0\ny = addc x zzz\noutput y\n", "bad constant"},
        BadCase{"circuit 4\nx = input 0\ny = add x q\noutput y\n", "unknown operand"},
        BadCase{"circuit 4\nx input 0\noutput x\n", "missing '='"}));

TEST(CircuitIo, ErrorsCarryLineNumbers) {
  try {
    parse_circuit("circuit 4\nx = input 0\ny = add x q\noutput y\n");
    FAIL() << "expected CircuitParseError";
  } catch (const CircuitParseError& e) {
    EXPECT_EQ(e.line_no, 3);
  }
}

}  // namespace
}  // namespace bobw
