// secretlint: secret-hygiene static analyzer for the vnfsgx tree.
//
// A token/AST-lite checker (no compiler dependency, lexer shared with
// tools/boundarycheck via tools/lintcore) enforcing four rule families over
// src/ (see docs/STATIC_ANALYSIS.md for the policy rationale):
//
//   R1 boundary     enclave-private headers must not be included from
//                   untrusted modules (controller/, dataplane/, ias/,
//                   http/), and the OCALL/serialization surface
//                   (vnf/ocall.h, core/protocol.h) must not mention
//                   secret-bearing types. (The ring double-fetch guard that
//                   used to live here is now boundarycheck rule B1, driven
//                   by `// boundary:` annotations instead of a file list.)
//   R2 zeroization  variables that *own* secret bytes (seeds, private
//                   keys, round keys, IKM) must be wrapped in
//                   Zeroizing<T> / SecureBytes so they wipe on destruct.
//   R3 constant-time (src/crypto/ only) branches and table indexing on
//                   key-derived values are flagged via a heuristic taint
//                   pass; `// ct-ok: <reason>` suppresses a finding and
//                   the reason is mandatory.
//   R4 hygiene      no memset() over secrets (use secure_memzero) and no
//                   secret identifiers in log statements.
//
// Modes:
//   secretlint --root <dir>       lint a source tree; exit 1 on findings
//   secretlint --fixtures <dir>   self-test against known_bad/known_good
//                                 snippets carrying secretlint-expect
//                                 directives; exit 1 on any mismatch
//
// The analyzer is deliberately heuristic: it trades soundness for zero
// build-time dependencies. Known blind spots (ternaries, multi-level
// template types, indirect data flow) are documented in
// docs/STATIC_ANALYSIS.md.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lintcore/lintcore.h"

namespace fs = std::filesystem;

namespace {

using lintcore::Finding;
using lintcore::SourceFile;

const lintcore::MarkSyntax kCtOkSyntax{"ct-ok"};

// ---------------------------------------------------------------------------
// Policy tables
// ---------------------------------------------------------------------------

// Modules that run outside the enclave trust boundary.
const std::set<std::string> kUntrustedModules = {"controller", "dataplane",
                                                 "ias", "http"};

// Headers whose contents are enclave-private (key schedules, record keys,
// the vault). Untrusted modules must talk through vnf/ocall.h instead.
const std::set<std::string> kPrivateHeaders = {
    "vnf/credential_enclave.h", "host/attestation_enclave.h",
    "tls/key_schedule.h",       "tls/record.h",
    "sgx/enclave.h",            "sgx/hostcall.h"};

// The marshalling surface between trusted and untrusted code. If a secret
// type leaks into these headers it can be serialized across the boundary.
const std::set<std::string> kBoundaryHeaders = {"src/vnf/ocall.h",
                                                "src/core/protocol.h"};
const std::vector<std::string> kSecretTypeTokens = {
    "Ed25519Seed", "Ed25519KeyPair", "Ed25519SigningKey", "X25519KeyPair",
    "KeySchedule", "TrafficKeys",    "Zeroizing",         "SecureBytes"};

// R2: identifiers that denote owned secret material.
const std::regex kSecretIdent("(secret|seed|private_key|round_keys|ikm)",
                              std::regex::icase);

// R2: owning types that can hold secret bytes. References and views are
// excluded by construction (the regex requires whitespace after the type).
const std::regex kOwningDecl(
    R"(\b(?:const\s+)?(?:(?:\w+::)*)(Bytes|Ed25519Seed|X25519Key|array<[^<>]*>)\s+([A-Za-z_]\w*)\s*[;={])");

// R3: identifiers that seed the taint set in crypto code.
const std::regex kTaintSource("(key|seed|secret|scalar|ikm|priv)",
                              std::regex::icase);

// R4: identifiers that make a memset/log line suspicious.
const std::regex kHygieneIdent(
    "(secret|seed|private_key|round_keys|ikm|scalar|_key|key_)",
    std::regex::icase);

const std::regex kInclude(R"(^\s*#\s*include\s*\"([^\"]+)\")");

/// Removes .size()/.empty() accesses: `key.size()` is public metadata.
/// (.data()/.begin()/.end() are NOT stripped: they alias the secret bytes.)
const std::regex kPublicAccess(R"(\w+\s*(\.|->)\s*(size|empty)\s*\(\s*\))");

std::string strip_public_access(const std::string& expr) {
  return std::regex_replace(expr, kPublicAccess, "");
}

// ---------------------------------------------------------------------------
// Linter
// ---------------------------------------------------------------------------

class Linter {
 public:
  std::vector<Finding> lint(const SourceFile& f) {
    findings_.clear();
    rule_boundary(f);
    rule_zeroization(f);
    if (f.module == "crypto") rule_constant_time(f);
    rule_hygiene(f);
    return findings_;
  }

 private:
  void add(const SourceFile& f, std::size_t line_index, const char* rule,
           std::string message) {
    findings_.push_back(Finding{f.path, static_cast<int>(line_index + 1),
                                rule, std::move(message)});
  }

  // R1: trust-boundary includes and marshalling-surface types.
  void rule_boundary(const SourceFile& f) {
    if (kUntrustedModules.count(f.module) != 0) {
      // Raw lines: the stripper blanks string-literal contents, which is
      // exactly where an include path lives.
      for (std::size_t i = 0; i < f.raw.size(); ++i) {
        std::smatch m;
        if (std::regex_search(f.raw[i], m, kInclude) &&
            kPrivateHeaders.count(m[1].str()) != 0) {
          add(f, i, "R1",
              "untrusted module '" + f.module +
                  "' includes enclave-private header \"" + m[1].str() + "\"");
        }
      }
    }
    if (kBoundaryHeaders.count(f.path) != 0) {
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        for (const std::string& tok : kSecretTypeTokens) {
          const std::regex word("\\b" + tok + "\\b");
          if (std::regex_search(f.code[i], word)) {
            add(f, i, "R1",
                "boundary header mentions secret type '" + tok +
                    "' (secrets must not cross the OCALL surface)");
          }
        }
      }
    }
  }

  // R2: owned secret material must be Zeroizing-wrapped.
  void rule_zeroization(const SourceFile& f) {
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      // Already wrapped (or an alias of a wrapper) on this line.
      if (line.find("Zeroizing") != std::string::npos ||
          line.find("SecureBytes") != std::string::npos) {
        continue;
      }
      std::smatch m;
      if (std::regex_search(line, m, kOwningDecl) &&
          std::regex_search(m[2].first, m[2].second, kSecretIdent)) {
        add(f, i, "R2",
            "secret-named variable '" + m[2].str() + "' has raw owning type " +
                m[1].str() + "; wrap it in Zeroizing<> / SecureBytes");
      }
    }
  }

  // R3: heuristic taint from key-like identifiers to branches/indexing.
  //
  // Taint is *function-scoped*: the file is segmented at column-0 closing
  // braces (this codebase puts top-level definitions at column 0), so a
  // nonce named `r` in sign() does not taint an unrelated `r` in slide().
  // Cross-function flow (a helper called with a secret argument) is instead
  // caught by seeding from parameter *names and types* inside the callee.
  void rule_constant_time(const SourceFile& f) {
    for (const lintcore::Segment& seg : lintcore::function_segments(f.code)) {
      ct_segment(f, seg.begin, seg.end);
    }

    // A ct-ok marker with no reason is itself a finding: suppressions must
    // be auditable.
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      if (f.marks[i].present && !f.marks[i].has_reason) {
        add(f, i, "R3", "ct-ok suppression is missing a reason");
      }
    }
    if (f.unclosed_block) {
      add(f, *f.unclosed_block, "R3",
          "ct-ok-begin block is never closed with ct-ok-end");
    }
  }

  void ct_segment(const SourceFile& f, std::size_t begin, std::size_t end) {
    // Taint seeding: identifiers that *name* key material, plus variables
    // and parameters whose declared *type* names key material (Scalar,
    // Ed25519Seed, ...).
    std::set<std::string> tainted;
    const std::regex typed_decl(
        R"(\b([A-Za-z_][\w:]*)\s*[&*]?\s+([A-Za-z_]\w*)\s*[,)=;{\[])");
    for (std::size_t i = begin; i < end; ++i) {
      for (const std::string& id : lintcore::idents_in(f.code[i])) {
        if (std::regex_search(id, kTaintSource)) tainted.insert(id);
      }
      const std::string& line = f.code[i];
      for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                          typed_decl);
           it != std::sregex_iterator(); ++it) {
        if (std::regex_search((*it)[1].first, (*it)[1].second,
                              kTaintSource)) {
          tainted.insert((*it)[2].str());
        }
      }
    }
    // Propagation: assignments (declarations, plain/compound assignment —
    // possibly through a subscripted lvalue — and range-for bindings) from
    // a tainted right-hand side taint the target name. Fixpoint over the
    // segment. The `[^=]` after `=` rejects `==` comparisons.
    const std::regex assign(
        R"(\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*(?:[-+*/%&|^]|<<|>>)?=\s*([^=][^;]*);)");
    const std::regex range_for(
        R"(\bfor\s*\(\s*[^:;()]*[\s&*]([A-Za-z_]\w*)\s*:\s*([^)]*)\))");
    for (int pass = 0; pass < 8; ++pass) {
      bool changed = false;
      for (std::size_t i = begin; i < end; ++i) {
        const std::string& line = f.code[i];
        std::smatch m;
        auto try_taint = [&](const std::string& name,
                             const std::string& init) {
          if (tainted.count(name) != 0) return;
          const std::string cleaned = strip_public_access(init);
          for (const std::string& id : lintcore::idents_in(cleaned)) {
            if (tainted.count(id) != 0) {
              tainted.insert(name);
              changed = true;
              return;
            }
          }
        };
        for (auto it = std::sregex_iterator(line.begin(), line.end(), assign);
             it != std::sregex_iterator(); ++it) {
          try_taint((*it)[1].str(), (*it)[2].str());
        }
        if (std::regex_search(line, m, range_for)) {
          try_taint(m[1].str(), m[2].str());
        }
      }
      if (!changed) break;
    }

    auto expr_tainted = [&](const std::string& expr) -> std::string {
      const std::string cleaned = strip_public_access(expr);
      for (const std::string& id : lintcore::idents_in(cleaned)) {
        if (tainted.count(id) != 0) return id;
      }
      return {};
    };

    for (std::size_t i = begin; i < end; ++i) {
      const std::string& line = f.code[i];

      // Branch conditions: if/while/switch (...) and the middle clause of a
      // classic for. Conditions are extracted with paren balancing and may
      // span lines.
      static const std::regex branch(R"(\b(if|while|switch|for)\s*\()");
      for (auto it = std::sregex_iterator(line.begin(), line.end(), branch);
           it != std::sregex_iterator(); ++it) {
        const std::string kw = (*it)[1].str();
        std::string expr = lintcore::balance_parens(
            f, i, static_cast<std::size_t>(it->position(0) + it->length(0)));
        if (kw == "for") {
          // Only the loop condition (between top-level semicolons) can leak
          // timing; range-fors walk the container sequentially.
          const auto clauses = lintcore::split_top_level(expr, ';');
          if (clauses.size() < 2) continue;
          expr = clauses[1];
        }
        const std::string id = expr_tainted(expr);
        if (!id.empty() && !lintcore::suppressed(f, i, "R3")) {
          add(f, i, "R3",
              kw + " condition depends on key-derived value '" + id + "'");
        }
      }

      // Table indexing: subscript *contents* derived from key material.
      for (std::size_t pos = line.find('[');
           pos != std::string::npos; pos = line.find('[', pos + 1)) {
        const std::size_t close = line.find(']', pos + 1);
        if (close == std::string::npos) break;
        const std::string sub = line.substr(pos + 1, close - pos - 1);
        const std::string id = expr_tainted(sub);
        if (!id.empty() && !lintcore::suppressed(f, i, "R3")) {
          add(f, i, "R3",
              "array index depends on key-derived value '" + id + "'");
        }
      }
    }
  }

  // R4: memset over secrets; secrets in logs, metric names/labels, and
  // span annotations. The obs exporters serve everything they are handed
  // over unauthenticated /metrics endpoints, so instrument registration
  // and span annotation are egress points just like log lines.
  void rule_hygiene(const SourceFile& f) {
    // common/secure.* implements secure_memzero and is allowed its memset.
    const bool is_secure_impl = f.path == "src/common/secure.h" ||
                                f.path == "src/common/secure.cpp";
    static const std::regex memset_call(R"(\bmemset\s*\()");
    static const std::regex log_call(R"(\bVNFSGX_LOG_\w+\s*\()");
    static const std::regex obs_call(
        R"(\b(?:counter|gauge|histogram|start_span|annotate)\s*\()");
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      std::smatch m;
      if (!is_secure_impl && std::regex_search(line, m, memset_call)) {
        const std::string args = lintcore::balance_parens(
            f, i, static_cast<std::size_t>(m.position(0) + m.length(0)));
        for (const std::string& id : lintcore::idents_in(args)) {
          if (std::regex_search(id, kHygieneIdent)) {
            add(f, i, "R4",
                "memset over secret '" + id +
                    "'; use secure_memzero (memset is dead-store-eliminated)");
            break;
          }
        }
      }
      if (std::regex_search(line, m, log_call)) {
        const std::string args = lintcore::balance_parens(
            f, i, static_cast<std::size_t>(m.position(0) + m.length(0)));
        for (const std::string& id : lintcore::idents_in(args)) {
          if (std::regex_search(id, kHygieneIdent)) {
            add(f, i, "R4",
                "log statement references secret '" + id + "'");
            break;
          }
        }
      }
      if (std::regex_search(line, m, obs_call)) {
        const std::string args = lintcore::balance_parens(
            f, i, static_cast<std::size_t>(m.position(0) + m.length(0)));
        for (const std::string& id : lintcore::idents_in(args)) {
          if (std::regex_search(id, kHygieneIdent)) {
            add(f, i, "R4",
                "metric/span call references secret '" + id +
                    "'; instrument names, label values, and annotations "
                    "are exported over /metrics");
            break;
          }
        }
      }
    }
  }

  std::vector<Finding> findings_;
};

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

int run_root(const fs::path& root) {
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "secretlint: not a directory: %s\n",
                 root.string().c_str());
    return 2;
  }
  const auto files = lintcore::source_files_under(root);

  Linter linter;
  std::vector<Finding> all;
  for (const fs::path& p : files) {
    const auto text = lintcore::read_file(p);
    if (!text) continue;
    const std::string rel = fs::relative(p, root).generic_string();
    const std::string module = rel.substr(0, rel.find('/'));
    auto src = lintcore::load_source("src/" + rel, module, *text, kCtOkSyntax);
    auto fnd = linter.lint(src);
    all.insert(all.end(), fnd.begin(), fnd.end());
  }
  lintcore::print_findings(all);
  std::fprintf(stderr, "secretlint: %zu file(s), %zu finding(s)\n",
               files.size(), all.size());
  return all.empty() ? 0 : 1;
}

// Fixture self-test: every known_bad file declares the rules it must trip
// via `// secretlint-expect: R<n>`; known_good files must be clean.
int run_fixtures(const fs::path& dir) {
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "secretlint: not a directory: %s\n",
                 dir.string().c_str());
    return 2;
  }
  const std::regex d_file(R"(secretlint-file:\s*(\S+))");
  const std::regex d_expect(R"(secretlint-expect:\s*(R\d))");

  Linter linter;
  int failures = 0;
  int checked = 0;
  for (const fs::path& p : lintcore::source_files_under(dir)) {
    const auto text = lintcore::read_file(p);
    if (!text) continue;
    const bool is_bad =
        p.parent_path().filename().string() == "known_bad";
    ++checked;

    // Directives: the virtual path decides module + boundary rules.
    std::string vpath = "src/misc/" + p.filename().string();
    std::set<std::string> expected;
    {
      std::istringstream in(*text);
      for (std::string line; std::getline(in, line);) {
        std::smatch m;
        if (std::regex_search(line, m, d_file)) vpath = m[1].str();
        if (std::regex_search(line, m, d_expect)) expected.insert(m[1].str());
      }
    }
    std::string module = vpath;
    if (module.rfind("src/", 0) == 0) module = module.substr(4);
    module = module.substr(0, module.find('/'));

    const auto findings =
        linter.lint(lintcore::load_source(vpath, module, *text, kCtOkSyntax));
    std::set<std::string> fired;
    for (const Finding& f : findings) fired.insert(f.rule);

    auto fail = [&](const std::string& why) {
      std::fprintf(stderr, "FAIL %s: %s\n", p.filename().string().c_str(),
                   why.c_str());
      lintcore::print_findings(findings);
      ++failures;
    };

    if (is_bad) {
      if (expected.empty()) {
        fail("known_bad fixture declares no secretlint-expect directive");
        continue;
      }
      for (const std::string& rule : expected) {
        if (fired.count(rule) == 0) {
          fail("expected rule " + rule + " did not fire");
        }
      }
      for (const std::string& rule : fired) {
        if (expected.count(rule) == 0) {
          fail("unexpected rule " + rule + " fired");
        }
      }
    } else {
      if (!findings.empty()) {
        fail("known_good fixture produced findings");
      }
    }
  }
  std::fprintf(stderr, "secretlint fixtures: %d checked, %d failure(s)\n",
               checked, failures);
  if (checked == 0) {
    std::fprintf(stderr, "secretlint: no fixtures found under %s\n",
                 dir.string().c_str());
    return 2;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--root") {
    return run_root(argv[2]);
  }
  if (argc == 3 && std::string(argv[1]) == "--fixtures") {
    return run_fixtures(argv[2]);
  }
  std::fprintf(stderr,
               "usage: secretlint --root <src-dir> | --fixtures <dir>\n");
  return 2;
}
