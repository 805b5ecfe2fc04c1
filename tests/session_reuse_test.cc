// Tests for read-session reuse (RefineSession, Sec 3.4 future work).

#include <gtest/gtest.h>

#include "core/read_api.h"
#include "lakehouse_fixture.h"

namespace biglake {
namespace {

class RefineSessionTest : public LakehouseFixture {
 protected:
  RefineSessionTest() : api_(&lake_), biglake_(&lake_) {
    BuildLake("fact/", 10, 40);
    EXPECT_TRUE(
        biglake_.CreateBigLakeTable(MakeBigLakeDef("fact", "fact/")).ok());
  }
  StorageReadApi api_;
  BigLakeTableService biglake_;
};

TEST_F(RefineSessionTest, NarrowsFilesWithoutRecreation) {
  auto base = api_.CreateReadSession("u", "ds.fact", {});
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->files_pruned, 0u);

  auto refined = api_.RefineSession(
      *base, Expr::InList(Expr::Col("date"),
                          {Value::Int64(2), Value::Int64(7)}));
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined->files_pruned, 8u);
  size_t kept = 0;
  for (const auto& s : refined->streams) kept += s.files.size();
  EXPECT_EQ(kept, 2u);

  // Rows match a from-scratch session with the same predicate.
  size_t refined_rows = 0;
  for (size_t s = 0; s < refined->streams.size(); ++s) {
    refined_rows += api_.ReadStreamBatch(*refined, s)->num_rows();
  }
  EXPECT_EQ(refined_rows, 80u);
  // The base session remains usable (its own state is untouched).
  size_t base_rows = 0;
  for (size_t s = 0; s < base->streams.size(); ++s) {
    base_rows += api_.ReadStreamBatch(*base, s)->num_rows();
  }
  EXPECT_EQ(base_rows, 400u);
}

TEST_F(RefineSessionTest, RefinementIsMuchCheaperThanCreation) {
  auto base = api_.CreateReadSession("u", "ds.fact", {});
  ASSERT_TRUE(base.ok());
  SimTimer create_timer(lake_.sim());
  ASSERT_TRUE(api_.CreateReadSession("u", "ds.fact", {}).ok());
  SimMicros create_cost = create_timer.ElapsedMicros();
  SimTimer refine_timer(lake_.sim());
  ASSERT_TRUE(api_.RefineSession(
                     *base, Expr::Eq(Expr::Col("date"),
                                     Expr::Lit(Value::Int64(1))))
                  .ok());
  SimMicros refine_cost = refine_timer.ElapsedMicros();
  EXPECT_LT(refine_cost * 3, create_cost);
}

TEST_F(RefineSessionTest, ChainsAndValidates) {
  auto base = api_.CreateReadSession("u", "ds.fact", {});
  ASSERT_TRUE(base.ok());
  auto r1 = api_.RefineSession(
      *base, Expr::Ge(Expr::Col("date"), Expr::Lit(Value::Int64(5))));
  ASSERT_TRUE(r1.ok());
  auto r2 = api_.RefineSession(
      *r1, Expr::Le(Expr::Col("date"), Expr::Lit(Value::Int64(6))));
  ASSERT_TRUE(r2.ok());
  size_t rows = 0;
  for (size_t s = 0; s < r2->streams.size(); ++s) {
    rows += api_.ReadStreamBatch(*r2, s)->num_rows();
  }
  EXPECT_EQ(rows, 80u);  // dates 5 and 6

  // Errors: unknown session, null predicate, unknown column.
  ReadSession fake = *base;
  fake.session_id = "rs-999";
  EXPECT_TRUE(api_.RefineSession(fake, Expr::IsNull(Expr::Col("id")))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(api_.RefineSession(*base, nullptr).status().IsInvalidArgument());
  EXPECT_TRUE(api_.RefineSession(*base, Expr::IsNull(Expr::Col("zzz")))
                  .status()
                  .IsNotFound());
}

}  // namespace
}  // namespace biglake
