// Tests for the three-level register model of paper §3.1: storage cells,
// overlapping registers, RegRef lock/forward/writeback and Const uniformity.
#include <gtest/gtest.h>

#include <string>

#include "regfile/reg_ref.hpp"

namespace rcpn::regfile {
namespace {

class RegfileTest : public ::testing::Test {
 protected:
  RegfileTest() : file_(4, WritePolicy::single_writer) {
    file_.add_identity_registers(4);
  }
  RegisterFile file_;
  PlaceId owner_a_ = kNoPlace;
  PlaceId owner_b_ = kNoPlace;
};

TEST_F(RegfileTest, ReadAfterWriteCell) {
  file_.write_cell(2, 0xAB);
  EXPECT_EQ(file_.read_cell(2), 0xABu);
}

TEST_F(RegfileTest, FreshRegisterIsReadable) {
  RegRef r;
  r.bind(&file_, 1, &owner_a_);
  EXPECT_TRUE(r.can_read());
  EXPECT_TRUE(r.can_write());
}

TEST_F(RegfileTest, ReserveBlocksReaders) {
  RegRef writer, reader;
  writer.bind(&file_, 1, &owner_a_);
  reader.bind(&file_, 1, &owner_b_);
  writer.reserve_write();
  EXPECT_FALSE(reader.can_read());
  EXPECT_FALSE(reader.can_write());  // single_writer: WAW stalls
  writer.set_value(42);
  writer.writeback();
  EXPECT_TRUE(reader.can_read());
  reader.read();
  EXPECT_EQ(reader.value(), 42u);
}

TEST_F(RegfileTest, ForwardingFromWriterState) {
  RegRef writer, reader;
  writer.bind(&file_, 1, &owner_a_);
  reader.bind(&file_, 1, &owner_b_);
  writer.reserve_write();

  // Writer has no value yet: no forwarding from any state.
  owner_a_ = 3;
  EXPECT_FALSE(reader.can_read_in(3));

  writer.set_value(7);  // result computed, writer now in place 3
  EXPECT_TRUE(reader.can_read_in(3));
  EXPECT_FALSE(reader.can_read_in(2));  // wrong state
  reader.read_in(3);
  EXPECT_EQ(reader.value(), 7u);

  // Plain read is still blocked until writeback.
  EXPECT_FALSE(reader.can_read());
  writer.writeback();
  EXPECT_TRUE(reader.can_read());
  EXPECT_EQ(file_.read_cell(1), 7u);
}

TEST_F(RegfileTest, ReleaseDropsReservationWithoutCommit) {
  RegRef writer;
  writer.bind(&file_, 1, &owner_a_);
  file_.write_cell(1, 99);
  writer.reserve_write();
  writer.set_value(1);
  writer.release();  // squash
  EXPECT_FALSE(file_.has_writer(1));
  EXPECT_EQ(file_.read_cell(1), 99u);  // old value preserved
}

TEST_F(RegfileTest, OverlappingRegistersShareStorage) {
  // Two architectural names over the same cell (banked register model).
  const RegisterId alias = file_.add_register("r1_alias", 1);
  RegRef a, b;
  a.bind(&file_, 1, &owner_a_);
  b.bind(&file_, alias, &owner_b_);
  a.reserve_write();
  // Hazard visible through the alias as well.
  EXPECT_FALSE(b.can_read());
  a.set_value(5);
  a.writeback();
  b.read();
  EXPECT_EQ(b.value(), 5u);
}

TEST_F(RegfileTest, IndependentCellsDoNotInterfere) {
  RegRef a, b;
  a.bind(&file_, 1, &owner_a_);
  b.bind(&file_, 2, &owner_b_);
  a.reserve_write();
  EXPECT_TRUE(b.can_read());
  EXPECT_TRUE(b.can_write());
}

TEST(RegfileMultiWriter, OutOfOrderCompletionKeepsNewestValue) {
  RegisterFile file(2, WritePolicy::multi_writer);
  file.add_identity_registers(2);
  PlaceId pa = kNoPlace, pb = kNoPlace;
  RegRef older, newer;
  older.bind(&file, 0, &pa);
  newer.bind(&file, 0, &pb);
  older.reserve_write();
  newer.reserve_write();  // multi_writer allows a second reservation
  // Newer completes first (out-of-order completion)...
  newer.set_value(2);
  newer.writeback();
  EXPECT_EQ(file.read_cell(0), 2u);
  // ...then the older writer must NOT clobber the newer value.
  older.set_value(1);
  older.writeback();
  EXPECT_EQ(file.read_cell(0), 2u);
  EXPECT_FALSE(file.has_writer(0));
}

TEST(RegfileMultiWriter, InOrderCompletionCommitsBoth) {
  RegisterFile file(1, WritePolicy::multi_writer);
  file.add_identity_registers(1);
  PlaceId pa = kNoPlace, pb = kNoPlace;
  RegRef first, second;
  first.bind(&file, 0, &pa);
  second.bind(&file, 0, &pb);
  first.reserve_write();
  second.reserve_write();
  first.set_value(10);
  first.writeback();
  EXPECT_EQ(file.read_cell(0), 10u);
  second.set_value(20);
  second.writeback();
  EXPECT_EQ(file.read_cell(0), 20u);
}

TEST(RegfileMultiWriter, ForwardOnlyFromNewestWriter) {
  RegisterFile file(1, WritePolicy::multi_writer);
  file.add_identity_registers(1);
  PlaceId pa = 5, pb = 5, pr = kNoPlace;
  RegRef older, newer, reader;
  older.bind(&file, 0, &pa);
  newer.bind(&file, 0, &pb);
  reader.bind(&file, 0, &pr);
  older.reserve_write();
  older.set_value(1);
  newer.reserve_write();
  // Older writer sits in place 5 with a ready value, but it is stale:
  // a newer reservation exists, so forwarding from it must be refused.
  EXPECT_FALSE(reader.can_read_in(5));
  newer.set_value(2);
  EXPECT_TRUE(reader.can_read_in(5));
  reader.read_in(5);
  EXPECT_EQ(reader.value(), 2u);
}

// can_read_in(s) reads the newest writer alone, under either write policy
// (the ARM issue helpers rely on it): a ready older writer in `s` does not
// stand in for a newer one that is not ready or sits elsewhere.
class NewestWriterRule : public ::testing::TestWithParam<WritePolicy> {};

TEST_P(NewestWriterRule, ForwardsOnlyFromTheNewestWritersPlace) {
  RegisterFile file(1, GetParam());
  file.add_identity_registers(1);
  PlaceId po = 5, pn = 5, pr = kNoPlace;
  RegRef older, newer, reader;
  older.bind(&file, 0, &po);
  newer.bind(&file, 0, &pn);
  reader.bind(&file, 0, &pr);
  EXPECT_EQ(reader.newest_writer(), nullptr);
  older.reserve_write();
  older.set_value(1);
  newer.reserve_write();
  EXPECT_EQ(reader.newest_writer(), &newer);

  // The newest writer in 5 has no value yet; the older one in 5 has.
  EXPECT_FALSE(reader.can_read_in(5));
  // The newest writer has its value but sits in another place.
  newer.set_value(2);
  pn = 6;
  EXPECT_FALSE(reader.can_read_in(5));
  EXPECT_TRUE(reader.can_read_in(6));

  // Once the newer writer writes back, the older one is newest again.
  newer.writeback();
  EXPECT_EQ(reader.newest_writer(), &older);
  EXPECT_TRUE(reader.can_read_in(5));
  EXPECT_FALSE(reader.can_read_in(6));
  reader.read_in(5);
  EXPECT_EQ(reader.value(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Policies, NewestWriterRule,
                         ::testing::Values(WritePolicy::single_writer,
                                           WritePolicy::multi_writer),
                         [](const auto& info) {
                           return info.param == WritePolicy::single_writer
                                      ? std::string("single_writer")
                                      : std::string("multi_writer");
                         });

TEST(RegfileHazard, NinthWriterThrowsAndKeepsTheFirstEight) {
  // A model without its can_write() guard stacks reservations on one cell;
  // the writer stack bound is checked in every build (not only by assert)
  // and the error names the cell and its register.
  RegisterFile file(2, WritePolicy::multi_writer);
  file.add_identity_registers(2);
  PlaceId owner = kNoPlace;
  RegRef refs[RegisterFile::kMaxWriters + 1];
  for (RegRef& r : refs) r.bind(&file, 1, &owner);
  for (unsigned i = 0; i < RegisterFile::kMaxWriters; ++i) refs[i].reserve_write();

  RegRef& ninth = refs[RegisterFile::kMaxWriters];
  try {
    ninth.reserve_write();
    FAIL() << "a ninth writer on one cell was accepted";
  } catch (const HazardError& e) {
    EXPECT_NE(std::string(e.what()).find("cell 1 (r1)"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(ninth.reserved());
  ASSERT_EQ(file.num_writers(1), RegisterFile::kMaxWriters);
  for (unsigned i = 0; i < RegisterFile::kMaxWriters; ++i)
    EXPECT_EQ(file.writer(1, i), &refs[i]) << "writer " << i;
  EXPECT_EQ(file.last_writer(1), &refs[RegisterFile::kMaxWriters - 1]);
  EXPECT_FALSE(file.has_writer(0));

  // Retiring the oldest writer frees a slot: the stack is still usable.
  refs[0].set_value(5);
  refs[0].writeback();
  ninth.reserve_write();
  EXPECT_EQ(file.last_writer(1), &ninth);
  EXPECT_EQ(file.writer(1, 0), &refs[1]);
}

TEST(ConstOperandTest, UniformInterface) {
  ConstOperand c(1234);
  EXPECT_TRUE(c.can_read());
  EXPECT_TRUE(c.can_write());
  EXPECT_FALSE(c.can_read_in(3));
  c.read();           // no-op
  c.reserve_write();  // no-op
  c.writeback();      // no-op
  c.release();        // no-op
  EXPECT_EQ(c.value(), 1234u);
}

TEST(RegfileReset, ClearsStorageAndWriters) {
  RegisterFile file(2, WritePolicy::single_writer);
  file.add_identity_registers(2);
  PlaceId p = kNoPlace;
  RegRef r;
  r.bind(&file, 0, &p);
  file.write_cell(0, 9);
  r.reserve_write();
  file.reset();
  EXPECT_EQ(file.read_cell(0), 0u);
  EXPECT_FALSE(file.has_writer(0));
}

}  // namespace
}  // namespace rcpn::regfile
