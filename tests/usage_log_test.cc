#include <gtest/gtest.h>

#include "analysis/binder.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "log/usage_log.h"
#include "sql/parser.h"

namespace datalawyer {
namespace {

class UsageLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>(&db_);
    ASSERT_TRUE(engine_
                    ->ExecuteScript(R"sql(
      CREATE TABLE items (id INT, name TEXT);
      INSERT INTO items VALUES (1, 'a'), (2, 'b'), (3, 'c');
    )sql")
                    .ok());
    log_ = UsageLog::WithStandardGenerators();
  }

  /// Parses + binds a user query and assembles the GenerationInput, with
  /// the query's shared run the way the checked path builds it.
  GenerationInput InputFor(const std::string& sql) {
    auto parsed = Parser::ParseSelect(sql);
    EXPECT_TRUE(parsed.ok());
    stmts_.push_back(std::move(parsed).value());
    Binder binder(engine_->db_catalog());
    auto bound = binder.Bind(*stmts_.back());
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    bounds_.push_back(std::move(bound).value());
    runs_.push_back(std::make_unique<UserQueryRun>(
        engine_->db_catalog(), bounds_.back().get(), ExecOptions{}));
    GenerationInput input;
    input.bound = bounds_.back().get();
    input.db_catalog = engine_->db_catalog();
    input.run = runs_.back().get();
    input.context = &context_;
    return input;
  }

  Database db_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<UsageLog> log_;
  QueryContext context_;
  std::vector<std::unique_ptr<SelectStmt>> stmts_;
  std::vector<std::unique_ptr<BoundQuery>> bounds_;
  std::vector<std::unique_ptr<UserQueryRun>> runs_;
};

TEST_F(UsageLogTest, StandardRelationsRegisteredInCostOrder) {
  EXPECT_EQ(log_->RelationNamesInOrder(),
            (std::vector<std::string>{"users", "schema", "provenance"}));
  EXPECT_TRUE(log_->IsLogRelation("users"));
  EXPECT_TRUE(log_->IsLogRelation("USERS"));
  EXPECT_FALSE(log_->IsLogRelation("clock"));
  EXPECT_FALSE(log_->IsLogRelation("items"));
}

TEST_F(UsageLogTest, DuplicateAndReservedRegistrationRejected) {
  EXPECT_FALSE(log_->RegisterGenerator(std::make_unique<UsersLogGenerator>())
                   .ok());
  class ClockImpostor : public UsersLogGenerator {
   public:
    const std::string& relation_name() const override {
      static const std::string* kName = new std::string("clock");
      return *kName;
    }
  };
  EXPECT_FALSE(log_->RegisterGenerator(std::make_unique<ClockImpostor>()).ok());
}

TEST_F(UsageLogTest, UsersGeneratorRecordsUid) {
  context_.uid = 42;
  GenerationInput input = InputFor("SELECT * FROM items");
  auto staged = log_->EnsureGenerated("users", 7, input);
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(*staged, 1u);
  const Table* delta = log_->delta_table("users");
  ASSERT_EQ(delta->NumRows(), 1u);
  EXPECT_EQ(delta->RowAt(0)[0], Value(int64_t{7}));   // ts prefixed
  EXPECT_EQ(delta->RowAt(0)[1], Value(int64_t{42}));
}

TEST_F(UsageLogTest, GenerationIsOncePerQuery) {
  GenerationInput input = InputFor("SELECT * FROM items");
  ASSERT_TRUE(log_->EnsureGenerated("users", 7, input).ok());
  auto again = log_->EnsureGenerated("users", 7, input);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  EXPECT_EQ(log_->delta_table("users")->NumRows(), 1u);
  EXPECT_TRUE(log_->IsGenerated("users"));
  EXPECT_FALSE(log_->IsGenerated("schema"));
}

TEST_F(UsageLogTest, SchemaGeneratorEmitsColumnDerivations) {
  GenerationInput input = InputFor("SELECT i.name AS n FROM items i");
  ASSERT_TRUE(log_->EnsureGenerated("schema", 3, input).ok());
  const Table* delta = log_->delta_table("schema");
  ASSERT_EQ(delta->NumRows(), 1u);
  // (ts, ocid, irid, icid, agg)
  EXPECT_EQ(delta->RowAt(0)[1], Value("n"));
  EXPECT_EQ(delta->RowAt(0)[2], Value("items"));
  EXPECT_EQ(delta->RowAt(0)[3], Value("name"));
  EXPECT_EQ(delta->RowAt(0)[4], Value(false));
}

TEST_F(UsageLogTest, ProvenanceGeneratorEmitsContributingTuples) {
  GenerationInput input = InputFor("SELECT i.name FROM items i WHERE i.id > 1");
  ASSERT_TRUE(log_->EnsureGenerated("provenance", 9, input).ok());
  const Table* delta = log_->delta_table("provenance");
  ASSERT_EQ(delta->NumRows(), 2u);  // rows 2 and 3 contribute
  // (ts, otid, irid, itid)
  EXPECT_EQ(delta->RowAt(0)[2], Value("items"));
  EXPECT_EQ(delta->RowAt(0)[1], Value(int64_t{0}));
  EXPECT_EQ(delta->RowAt(1)[1], Value(int64_t{1}));
}

// f_Provenance reads the query's shared run: the capturing execution it
// triggers is the only one, and the answer reuses its rows with the lineage
// stripped.
TEST_F(UsageLogTest, ProvenanceRunIsReusedForTheAnswer) {
  const std::string sql = "SELECT i.name FROM items i WHERE i.id > 1";
  GenerationInput input = InputFor(sql);
  ASSERT_TRUE(log_->EnsureGenerated("provenance", 9, input).ok());
  EXPECT_GT(input.run->TakeCost().ms, 0.0);
  EXPECT_FALSE(input.run->Lineage().ok());  // released once the rows exist

  auto answer = input.run->TakeAnswer();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(input.run->TakeCost().ms, 0.0);  // no second execution
  auto parsed = Parser::ParseSelect(sql);
  ASSERT_TRUE(parsed.ok());
  auto plain = Executor(engine_->db_catalog()).Execute(**parsed);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(answer->rows, plain->rows);
  EXPECT_EQ(answer->schema.columns().size(), plain->schema.columns().size());
  EXPECT_FALSE(answer->has_lineage);
  EXPECT_TRUE(answer->lineage.empty());
  EXPECT_TRUE(answer->base_relations.empty());
}

// Without a lineage consumer the answer is a plain execution, run once.
TEST_F(UsageLogTest, AnswerRunsPlainlyWhenNothingCaptured) {
  GenerationInput input = InputFor("SELECT * FROM items");
  ASSERT_TRUE(log_->EnsureGenerated("users", 1, input).ok());
  ASSERT_TRUE(log_->EnsureGenerated("schema", 1, input).ok());
  EXPECT_EQ(input.run->TakeCost().ms, 0.0);  // no generator ran the query
  auto answer = input.run->TakeAnswer();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->NumRows(), 3u);
  EXPECT_FALSE(answer->has_lineage);
  EXPECT_GT(input.run->TakeCost().ms, 0.0);
}

TEST_F(UsageLogTest, CommitMovesDeltaToMain) {
  GenerationInput input = InputFor("SELECT * FROM items");
  ASSERT_TRUE(log_->EnsureGenerated("users", 1, input).ok());
  EXPECT_EQ(log_->CommitStaged(), 1u);
  EXPECT_EQ(log_->main_table("users")->NumRows(), 1u);
  EXPECT_EQ(log_->delta_table("users")->NumRows(), 0u);
  EXPECT_FALSE(log_->IsGenerated("users"));
}

TEST_F(UsageLogTest, DiscardDropsDelta) {
  GenerationInput input = InputFor("SELECT * FROM items");
  ASSERT_TRUE(log_->EnsureGenerated("users", 1, input).ok());
  log_->DiscardStaged();
  EXPECT_EQ(log_->main_table("users")->NumRows(), 0u);
  EXPECT_EQ(log_->delta_table("users")->NumRows(), 0u);
}

TEST_F(UsageLogTest, NonPersistedRelationsDropAtCommit) {
  log_->SetPersisted("users", false);
  EXPECT_FALSE(log_->IsPersisted("users"));
  GenerationInput input = InputFor("SELECT * FROM items");
  ASSERT_TRUE(log_->EnsureGenerated("users", 1, input).ok());
  ASSERT_TRUE(log_->EnsureGenerated("schema", 1, input).ok());
  log_->CommitStaged();
  EXPECT_EQ(log_->main_table("users")->NumRows(), 0u);
  EXPECT_GE(log_->main_table("schema")->NumRows(), 1u);
}

TEST_F(UsageLogTest, CatalogExposesLogUnionIncrementAndClock) {
  GenerationInput input = InputFor("SELECT * FROM items");
  ASSERT_TRUE(log_->EnsureGenerated("users", 1, input).ok());
  log_->CommitStaged();
  // One committed row; stage another at ts 2.
  GenerationInput input2 = InputFor("SELECT * FROM items");
  ASSERT_TRUE(log_->EnsureGenerated("users", 2, input2).ok());

  UsageLog::PolicyCatalog catalog =
      log_->MakeCatalog(engine_->db_catalog(), 2);
  const RelationData* users = catalog.view()->Find("users");
  ASSERT_NE(users, nullptr);
  EXPECT_EQ(users->NumRows(), 2u);  // main + delta
  const RelationData* clock = catalog.view()->Find("clock");
  ASSERT_NE(clock, nullptr);
  ASSERT_EQ(clock->NumRows(), 1u);
  EXPECT_EQ(clock->RowAt(0)[0], Value(int64_t{2}));
  // The database shows through.
  EXPECT_NE(catalog.view()->Find("items"), nullptr);
}

TEST_F(UsageLogTest, ExtensionGeneratorsFromSection6) {
  auto custom = std::make_unique<UsageLog>();
  ASSERT_TRUE(
      custom->RegisterGenerator(std::make_unique<DeviceLogGenerator>()).ok());
  ASSERT_TRUE(custom
                  ->RegisterGenerator(
                      std::make_unique<SystemLoadLogGenerator>())
                  .ok());
  context_.uid = 1;
  context_.extras["device"] = Value("mobile");
  context_.extras["system_load"] = Value(0.93);
  GenerationInput input = InputFor("SELECT * FROM items");
  ASSERT_TRUE(custom->EnsureGenerated("devices", 5, input).ok());
  ASSERT_TRUE(custom->EnsureGenerated("system_load", 5, input).ok());
  EXPECT_EQ(custom->delta_table("devices")->RowAt(0)[1], Value("mobile"));
  EXPECT_EQ(custom->delta_table("system_load")->RowAt(0)[1], Value(0.93));

  // Defaults when the context does not carry the extras.
  QueryContext bare;
  GenerationInput input2 = InputFor("SELECT * FROM items");
  input2.context = &bare;
  custom->DiscardStaged();
  ASSERT_TRUE(custom->EnsureGenerated("devices", 6, input2).ok());
  EXPECT_EQ(custom->delta_table("devices")->RowAt(0)[1], Value("unknown"));
}

TEST_F(UsageLogTest, UnknownRelationErrors) {
  GenerationInput input = InputFor("SELECT * FROM items");
  EXPECT_FALSE(log_->EnsureGenerated("nope", 1, input).ok());
  EXPECT_EQ(log_->main_table("nope"), nullptr);
  EXPECT_EQ(log_->generator("nope"), nullptr);
}

}  // namespace
}  // namespace datalawyer
