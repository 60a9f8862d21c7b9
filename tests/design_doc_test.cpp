// DESIGN.md is the errata ledger: every "erratum N" / "deviation note N"
// cited in src/ or tests/ must have an entry (a "## Erratum N" or
// "## Deviation note N" heading), and every test an entry names as
// `Suite.Name` must exist as TEST(Suite, Name) under tests/.  README's
// "Registered metrics" table must list exactly the metrics src/ registers,
// and each of its rows must state a unit.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Sources under `dir` (.cpp / .hpp), keyed by path.
std::map<std::string, std::string> sources(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".cpp" || ext == ".hpp"))
      out[entry.path().string()] = slurp(entry.path());
  }
  return out;
}

/// "erratum 4" → "Erratum 4", "deviation note 5" → "Deviation note 5".
std::string canonical(const std::string& kind, const std::string& id) {
  const bool erratum = std::tolower(static_cast<unsigned char>(kind[0])) == 'e';
  return (erratum ? "Erratum " : "Deviation note ") + id;
}

TEST(DesignDoc, EveryCitedIdHasAnEntryAndEveryNamedTestExists) {
  const fs::path root(SSNO_SOURCE_DIR);
  const std::string design = slurp(root / "DESIGN.md");
  ASSERT_FALSE(design.empty()) << "DESIGN.md missing";

  std::set<std::string> entries;
  const std::regex heading(R"(\n## (Erratum|Deviation note) (\d+)\b)");
  for (std::sregex_iterator it(design.begin(), design.end(), heading), end;
       it != end; ++it)
    entries.insert(canonical((*it)[1], (*it)[2]));
  // The ledger's fixed entries.
  for (const char* id : {"Erratum 1", "Erratum 2", "Erratum 3", "Erratum 4",
                         "Deviation note 5", "Deviation note 6"})
    EXPECT_TRUE(entries.contains(id)) << id;

  std::map<std::string, std::string> files = sources(root / "src");
  files.merge(sources(root / "tests"));
  const std::regex cite(R"((erratum|deviation note)(?: fix)? (\d+))",
                        std::regex::icase);
  int citations = 0;
  for (const auto& [path, text] : files) {
    for (std::sregex_iterator it(text.begin(), text.end(), cite), end;
         it != end; ++it, ++citations)
      EXPECT_TRUE(entries.contains(canonical((*it)[1], (*it)[2])))
          << path << " cites " << (*it)[0] << " but DESIGN.md has no entry";
  }
  EXPECT_GE(citations, 6);

  std::set<std::string> tests;
  const std::regex testDecl(R"(TEST\((\w+),\s*(\w+)\))");
  for (const auto& [path, text] : files)
    for (std::sregex_iterator it(text.begin(), text.end(), testDecl), end;
         it != end; ++it)
      tests.insert((*it)[1].str() + "." + (*it)[2].str());
  const std::regex named(R"(`([A-Z]\w+)\.([A-Z]\w+)`)");
  int named_tests = 0;
  for (std::sregex_iterator it(design.begin(), design.end(), named), end;
       it != end; ++it, ++named_tests) {
    const std::string name = (*it)[1].str() + "." + (*it)[2].str();
    EXPECT_TRUE(tests.contains(name))
        << "DESIGN.md names missing test " << name;
  }
  EXPECT_GE(named_tests, 6);
}

/// The backticked spans of `text`.
std::vector<std::string> codeSpans(const std::string& text) {
  static const std::regex code("`([^`]+)`");
  std::vector<std::string> out;
  for (std::sregex_iterator it(text.begin(), text.end(), code), end;
       it != end; ++it)
    out.push_back((*it)[1]);
  return out;
}

TEST(DesignDoc, EveryRegisteredMetricIsDocumentedAndEveryDocumentedOneExists) {
  const fs::path root(SSNO_SOURCE_DIR);
  std::set<std::string> registered;
  const std::regex registration(
      R"re(\.(?:counter|gauge|histogram)\(\s*"(\w+)")re");
  for (const auto& [path, text] : sources(root / "src"))
    for (std::sregex_iterator it(text.begin(), text.end(), registration), end;
         it != end; ++it)
      registered.insert((*it)[1]);
  EXPECT_GE(registered.size(), 50u);

  // The table's rows, "| names | kind | unit | what it counts |", follow
  // the heading.  A name may hold one {a,b,...} group, or <verb>, which
  // stands for every backticked word of the row's last cell.  The unit
  // cell lists one unit for the whole row, or one per backticked name.
  const std::string readme = slurp(root / "README.md");
  const std::size_t at = readme.find("Registered metrics");
  ASSERT_NE(at, std::string::npos) << "README has no metrics table";
  std::istringstream lines(readme.substr(at));
  std::set<std::string> documented;
  const std::regex group(R"(\{([^}]*)\})");
  bool inTable = false;
  for (std::string line; std::getline(lines, line);) {
    if (!line.starts_with("|")) {
      if (inTable) break;
      continue;
    }
    inTable = true;
    std::vector<std::string> cells;  // "", names, kind, unit, what
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, '|');) cells.push_back(cell);
    if (cells.size() != 5) continue;
    const std::vector<std::string> names = codeSpans(cells[1]);
    if (names.empty()) continue;  // the header and its rule
    std::size_t units = 0;
    std::istringstream unitCell(cells[3]);
    for (std::string unit; std::getline(unitCell, unit, ',');)
      if (unit.find_first_not_of(' ') != std::string::npos) ++units;
    EXPECT_TRUE(units == 1 || units == names.size())
        << "README metric row states " << units << " units for "
        << names.size() << " names: " << line;
    for (const std::string& name : names) {
      std::smatch m;
      if (std::regex_search(name, m, group)) {
        std::istringstream alternatives(m[1].str());
        for (std::string alt; std::getline(alternatives, alt, ',');)
          documented.insert(m.prefix().str() + alt + m.suffix().str());
      } else if (const std::size_t verb = name.find("<verb>");
                 verb != std::string::npos) {
        for (const std::string& v : codeSpans(cells[4]))
          documented.insert(std::string(name).replace(verb, 6, v));
      } else {
        documented.insert(name);
      }
    }
  }
  for (const std::string& name : registered)
    EXPECT_TRUE(documented.contains(name))
        << name << " is registered under src/ but missing from README";
  for (const std::string& name : documented)
    EXPECT_TRUE(registered.contains(name))
        << "README lists " << name << ", which nothing under src/ registers";
}

}  // namespace
