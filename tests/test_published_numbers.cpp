// Published numbers must be the generated ones: the measured values that
// README.md and EXPERIMENTS.md print next to the paper's must equal what the
// CI goldens pin (ci/golden/table1_sbst_program.stdout for Table 1 and the
// E4 area split, ci/golden/sbst_evaluate.stdout for the two-decimal overall
// coverage). When a change moves a golden, this test names every stale
// sentence of the docs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

using Row = std::vector<std::string>;

std::string read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string golden(const std::string& name) {
  return read(std::string(SBST_GOLDEN_DIR) + "/" + name);
}

std::string doc(const std::string& name) {
  return read(std::string(SBST_SOURCE_DIR) + "/" + name);
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t*");
  const auto e = s.find_last_not_of(" \t*");
  return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

/// Cells of a `|`-separated line, trimmed (also of markdown bold stars);
/// the empty cells outside a markdown row's outer pipes are dropped.
Row cells(const std::string& line) {
  Row row;
  std::stringstream in(line);
  std::string cell;
  while (std::getline(in, cell, '|')) row.push_back(trim(cell));
  if (!row.empty() && row.front().empty() && line.front() == '|') {
    row.erase(row.begin());
  }
  return row;
}

/// The golden T1 table rows, keyed by component name (and "Total").
std::map<std::string, Row> golden_t1() {
  std::map<std::string, Row> rows;
  std::istringstream in(golden("table1_sbst_program.stdout"));
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.rfind("Component         | GE (gates)", 0) == 0) {
      in_table = true;
    } else if (in_table && line.find('|') != std::string::npos) {
      const Row row = cells(line);
      rows[row.front()] = row;
      if (row.front() == "Total") break;
    }
  }
  return rows;
}

/// The markdown table rows of EXPERIMENTS.md's T1 section, keyed by label.
std::map<std::string, Row> experiments_t1() {
  const std::string text = doc("EXPERIMENTS.md");
  const auto begin = text.find("## T1");
  const auto end = text.find("\n## ", begin + 1);
  std::map<std::string, Row> rows;
  std::istringstream in(text.substr(begin, end - begin));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| ", 0) == 0) {
      const Row row = cells(line);
      rows[row.front()] = row;
    }
  }
  return rows;
}

/// The golden's two-decimal overall stuck-at coverage, e.g. "96.48".
std::string golden_overall_fc() {
  std::smatch m;
  const std::string text = golden("sbst_evaluate.stdout");
  EXPECT_TRUE(
      std::regex_search(text, m, std::regex(R"(overall FC ([0-9.]+)%)")));
  return m[1];
}

// Golden T1 columns: 0 name, 1 GE, 2 class, 3 style, 4 words, 5 cycles,
// 6 data refs, 7 FC. EXPERIMENTS T1 "Ours" columns: 2 GE, 6 words,
// 8 cycles, 10 refs, 11 FC.
constexpr std::size_t kGoldenCol[] = {1, 4, 5, 6};
constexpr std::size_t kDocCol[] = {2, 6, 8, 10};

std::size_t number(const std::string& cell) {
  std::string digits;
  for (char c : cell) {
    if (c != ',') digits += c;
  }
  return std::stoul(digits);
}

std::string with_commas(std::size_t n) {
  std::string s = std::to_string(n);
  for (int i = static_cast<int>(s.size()) - 3; i > 0; i -= 3) {
    s.insert(static_cast<std::size_t>(i), ",");
  }
  return s;
}

TEST(PublishedNumbers, ExperimentsTable1MatchesGolden) {
  const std::map<std::string, Row> gold = golden_t1();
  const std::map<std::string, Row> docs = experiments_t1();
  // Each EXPERIMENTS row and the golden components it reports; merged rows
  // sum the counts and list the coverages separated by " / ".
  const std::map<std::string, std::vector<std::string>> rows = {
      {"Parallel Mul. + Serial Div.", {"Parallel Mul.", "Serial Div."}},
      {"Register File", {"Register File"}},
      {"Memory controller", {"Memory controller"}},
      {"Shifter", {"Shifter"}},
      {"ALU", {"ALU"}},
      {"Control Logic", {"Control Logic"}},
      {"Pipeline (HC)", {"Forwarding Unit", "Pipeline Regs"}},
      {"Branch Adder (M-VC)", {"Branch Adder"}},
  };
  for (const auto& [label, parts] : rows) {
    ASSERT_TRUE(docs.count(label)) << "EXPERIMENTS T1 row " << label;
    const Row& row = docs.at(label);
    ASSERT_EQ(row.size(), 12u) << label;
    std::string fc;
    for (const std::string& part : parts) {
      ASSERT_TRUE(gold.count(part)) << part;
      fc += (fc.empty() ? "" : " / ") + gold.at(part)[7];
    }
    EXPECT_EQ(row[11], fc) << "EXPERIMENTS T1 FC of " << label;
    for (std::size_t c = 0; c < 4; ++c) {
      const std::string& first = gold.at(parts.front())[kGoldenCol[c]];
      if (first == "-") {
        EXPECT_EQ(row[kDocCol[c]], "–") << label << " column " << kDocCol[c];
        continue;
      }
      std::size_t sum = 0;
      for (const std::string& part : parts) {
        sum += number(gold.at(part)[kGoldenCol[c]]);
      }
      EXPECT_EQ(row[kDocCol[c]], with_commas(sum))
          << label << " column " << kDocCol[c];
    }
  }
  ASSERT_TRUE(docs.count("Total"));
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(docs.at("Total")[kDocCol[c]],
              gold.at("Total")[kGoldenCol[c]])
        << "EXPERIMENTS T1 Total column " << kDocCol[c];
  }
  ASSERT_TRUE(docs.count("Overall FC"));
  EXPECT_EQ(docs.at("Overall FC")[11], golden_overall_fc() + " %");
}

TEST(PublishedNumbers, ReadmeHeadlineMatchesGolden) {
  const std::string readme = doc("README.md");
  const std::string fc = golden_overall_fc();
  // The two-decimal figure the goldens print rounds to T1's Total FC.
  const std::map<std::string, Row> gold = golden_t1();
  char rounded[16];
  std::snprintf(rounded, sizeof rounded, "%.1f", std::stod(fc));
  EXPECT_EQ(gold.at("Total")[7], rounded);

  std::smatch m;
  ASSERT_TRUE(std::regex_search(
      readme, m, std::regex(R"(\n +([0-9.]+) %  \(paper: 95\.6 %\))")));
  EXPECT_EQ(m[1], fc) << "README headline";

  // The summary table: measured value per quantity.
  std::map<std::string, std::string> summary;
  std::istringstream in(readme);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| ", 0) == 0) {
      const Row row = cells(line);
      if (row.size() == 3) summary[row[0]] = row[2];
    }
  }
  EXPECT_EQ(summary["Overall stuck-at fault coverage"], fc + " %");
  EXPECT_EQ(summary["Data memory references"], gold.at("Total")[6]);
  EXPECT_EQ(summary["Program size (words)"], gold.at("Total")[4]);
  EXPECT_EQ(summary["CPU clock cycles"], gold.at("Total")[5]);
  const std::string t1 = golden("table1_sbst_program.stdout");
  ASSERT_TRUE(
      std::regex_search(t1, m, std::regex(R"(\nD-VC  \| ([0-9.]+) )")));
  EXPECT_EQ(summary["D-VC area share"], std::string(m[1]) + " %");
}

}  // namespace
