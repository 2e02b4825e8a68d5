// Command-line client for the CPR KV server (examples/kv_server.cpp).
//
//   kv_client_cli --port 7777 put 1 42
//   kv_client_cli --port 7777 get 1
//   kv_client_cli --port 7777 --guid 7 --durable        # interactive REPL
//
// With --guid the client resumes that CPR session: after a server crash and
// --recover restart, HELLO reports the session's recovered commit point and
// the client replays any tracked updates past it. --durable withholds every
// acknowledgement until a checkpoint covers the operation, so a printed
// "ok" means committed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "certify/checker.h"
#include "certify/history.h"
#include "client/client.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port N] [--guid G] [--durable]\n"
      "          [--record-history=F] [cmd...]\n"
      "--record-history=F journals every observed event (HELLO results,\n"
      "acks, commit-point notifications) to the checked blob F on exit, for\n"
      "the offline certifier (certify_check).\n"
      "commands (one per line in the REPL, or a single one on argv):\n"
      "  put K V      upsert int64 value V at key K\n"
      "  get K        read key K\n"
      "  rmw K D      add int64 D to key K\n"
      "  del K        delete key K\n"
      "  txn OP...    one multi-key transaction (txdb servers only); each\n"
      "               OP is r:ROW | w:ROW:VAL | a:ROW:DELTA, optionally\n"
      "               T.ROW to address table T (default 0). Read results\n"
      "               print in op order; a NO-WAIT conflict prints\n"
      "               \"conflict (retry)\"\n"
      "  ckpt         request a CPR checkpoint, wait until durable\n"
      "  point        query this session's durable commit point\n"
      "  stats        scrape the server's metrics (Prometheus text)\n"
      "  health       fetch the watchdog health record (JSON: overall\n"
      "               OK/WARN/STALL plus per-check escalation state)\n"
      "  breakdown [F]\n"
      "               fetch the per-op critical-path latency breakdown\n"
      "               (JSON: p50/p99 per stage — decode, park, execute,\n"
      "               durable_gate, ack, write — plus end-to-end) to\n"
      "               stdout, or to file F\n"
      "  provider [cpr|calc|wal]\n"
      "               report the durability provider, or queue a live\n"
      "               switch to the named one (flips at the next\n"
      "               checkpoint boundary; poll \"provider\" to observe)\n"
      "  trace [F]    fetch the checkpoint lifecycle trace (Chrome\n"
      "               trace_event JSON) to stdout, or to file F — open\n"
      "               it in Perfetto (ui.perfetto.dev)\n"
      "  dump F       write the server's full state (all tables, over the\n"
      "               sessionless DUMP op) to the checked blob F; meaningful\n"
      "               on a quiesced server\n"
      "  certify BASELINE HIST...\n"
      "               dump the server's CURRENT state as the final state and\n"
      "               check the recorded histories HIST... against the CPR\n"
      "               contract relative to the BASELINE dump; prints each\n"
      "               violation, \"certified\" if none\n"
      "  info         print guid / serials / replay backlog\n"
      "  quit         exit the REPL\n",
      argv0);
}

int Exec(cpr::client::CprClient& c, const std::vector<std::string>& cmd) {
  const auto fail = [](const cpr::Status& s) {
    std::printf("error: %s\n", s.ToString().c_str());
    return 1;
  };
  if (cmd.empty()) return 0;
  const std::string& op = cmd[0];
  if (op == "put" && cmd.size() == 3) {
    const int64_t v = std::strtoll(cmd[2].c_str(), nullptr, 0);
    const cpr::Status s = c.Upsert(std::strtoull(cmd[1].c_str(), nullptr, 0),
                                   &v);
    if (!s.ok()) return fail(s);
    std::printf("ok\n");
  } else if (op == "get" && cmd.size() == 2) {
    int64_t v = 0;
    bool found = false;
    const cpr::Status s =
        c.Read(std::strtoull(cmd[1].c_str(), nullptr, 0), &v, &found);
    if (!s.ok()) return fail(s);
    if (found) {
      std::printf("%lld\n", static_cast<long long>(v));
    } else {
      std::printf("(not found)\n");
    }
  } else if (op == "rmw" && cmd.size() == 3) {
    const cpr::Status s = c.Rmw(std::strtoull(cmd[1].c_str(), nullptr, 0),
                                std::strtoll(cmd[2].c_str(), nullptr, 0));
    if (!s.ok()) return fail(s);
    std::printf("ok\n");
  } else if (op == "del" && cmd.size() == 2) {
    bool found = false;
    const cpr::Status s =
        c.Delete(std::strtoull(cmd[1].c_str(), nullptr, 0), &found);
    if (!s.ok()) return fail(s);
    std::printf("ok\n");
  } else if (op == "txn" && cmd.size() >= 2) {
    // Each token: r:ROW | w:ROW:VAL | a:ROW:DELTA, ROW optionally T.ROW.
    std::vector<cpr::net::TxnWireOp> ops;
    for (size_t i = 1; i < cmd.size(); ++i) {
      const std::string& tok = cmd[i];
      if (tok.size() < 3 || tok[1] != ':') {
        std::printf("bad txn op \"%s\"\n", tok.c_str());
        return 2;
      }
      cpr::net::TxnWireOp wop;
      std::string rest = tok.substr(2);
      std::string arg;
      const size_t colon = rest.find(':');
      if (colon != std::string::npos) {
        arg = rest.substr(colon + 1);
        rest = rest.substr(0, colon);
      }
      const size_t dot = rest.find('.');
      if (dot != std::string::npos) {
        wop.table = static_cast<uint32_t>(
            std::strtoul(rest.substr(0, dot).c_str(), nullptr, 0));
        rest = rest.substr(dot + 1);
      }
      wop.row = std::strtoull(rest.c_str(), nullptr, 0);
      switch (tok[0]) {
        case 'r':
          wop.kind = cpr::net::TxnOpKind::kRead;
          break;
        case 'w': {
          if (arg.empty()) {
            std::printf("w needs a value: \"%s\"\n", tok.c_str());
            return 2;
          }
          wop.kind = cpr::net::TxnOpKind::kWrite;
          const int64_t v = std::strtoll(arg.c_str(), nullptr, 0);
          wop.value.assign(c.value_size(), 0);
          std::memcpy(wop.value.data(), &v,
                      std::min(sizeof(v), wop.value.size()));
          break;
        }
        case 'a':
          if (arg.empty()) {
            std::printf("a needs a delta: \"%s\"\n", tok.c_str());
            return 2;
          }
          wop.kind = cpr::net::TxnOpKind::kAdd;
          wop.delta = std::strtoll(arg.c_str(), nullptr, 0);
          break;
        default:
          std::printf("bad txn op \"%s\"\n", tok.c_str());
          return 2;
      }
      ops.push_back(std::move(wop));
    }
    std::vector<std::vector<char>> reads;
    const cpr::Status s = c.Txn(ops, &reads);
    if (s.code() == cpr::Status::Code::kBusy) {
      std::printf("conflict (retry)\n");
      return 1;
    }
    if (!s.ok()) return fail(s);
    size_t r = 0;
    for (const auto& wop : ops) {
      if (wop.kind != cpr::net::TxnOpKind::kRead) continue;
      const std::vector<char>& bytes = reads[r++];
      int64_t v = 0;
      std::memcpy(&v, bytes.data(), std::min(sizeof(v), bytes.size()));
      std::printf("[%u.%llu] %lld\n", wop.table,
                  static_cast<unsigned long long>(wop.row),
                  static_cast<long long>(v));
    }
    std::printf("committed\n");
  } else if (op == "ckpt") {
    uint64_t token = 0;
    uint64_t commit = 0;
    const cpr::Status s = c.Checkpoint(&token, &commit, /*snapshot=*/false,
                                       /*include_index=*/true);
    if (!s.ok()) return fail(s);
    std::printf("checkpoint token=%llu commit_point=%llu\n",
                static_cast<unsigned long long>(token),
                static_cast<unsigned long long>(commit));
  } else if (op == "point") {
    uint64_t commit = 0;
    const cpr::Status s = c.CommitPoint(&commit);
    if (!s.ok()) return fail(s);
    std::printf("commit_point=%llu\n",
                static_cast<unsigned long long>(commit));
  } else if (op == "stats" && cmd.size() == 1) {
    std::string text;
    const cpr::Status s = c.ServerStats(&text);
    if (!s.ok()) return fail(s);
    std::fputs(text.c_str(), stdout);
  } else if (op == "health" && cmd.size() == 1) {
    std::string json;
    const cpr::Status s = c.ServerHealth(&json);
    if (!s.ok()) return fail(s);
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
  } else if (op == "breakdown" && cmd.size() <= 2) {
    std::string json;
    const cpr::Status s = c.ServerBreakdown(&json);
    if (!s.ok()) return fail(s);
    if (cmd.size() == 2) {
      std::FILE* f = std::fopen(cmd[1].c_str(), "w");
      if (f == nullptr) {
        std::printf("error: cannot open %s\n", cmd[1].c_str());
        return 1;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %zu bytes to %s\n", json.size(), cmd[1].c_str());
    } else {
      std::fwrite(json.data(), 1, json.size(), stdout);
      std::fputc('\n', stdout);
    }
  } else if (op == "provider" && cmd.size() <= 2) {
    cpr::client::CprClient::ProviderStatus ps;
    cpr::Status s;
    if (cmd.size() == 2) {
      cpr::durability::ProviderKind kind;
      if (!cpr::durability::ParseProviderKind(cmd[1], &kind)) {
        std::printf("unknown provider \"%s\" (cpr|calc|wal)\n",
                    cmd[1].c_str());
        return 2;
      }
      s = c.SwitchProvider(kind, &ps);
      if (!s.ok()) return fail(s);
      std::printf("switch to %s queued\n", cmd[1].c_str());
    } else {
      s = c.ProviderInfo(&ps);
      if (!s.ok()) return fail(s);
    }
    std::printf("provider=%s pending=%d switches=%llu last_boundary=%llu\n",
                cpr::durability::ProviderKindName(ps.kind), ps.pending ? 1 : 0,
                static_cast<unsigned long long>(ps.switches),
                static_cast<unsigned long long>(ps.last_boundary));
  } else if (op == "trace" && cmd.size() <= 2) {
    std::string json;
    const cpr::Status s = c.ServerTrace(&json);
    if (!s.ok()) return fail(s);
    if (cmd.size() == 2) {
      std::FILE* f = std::fopen(cmd[1].c_str(), "w");
      if (f == nullptr) {
        std::printf("error: cannot open %s\n", cmd[1].c_str());
        return 1;
      }
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %zu bytes to %s\n", json.size(), cmd[1].c_str());
    } else {
      std::fwrite(json.data(), 1, json.size(), stdout);
      std::fputc('\n', stdout);
    }
  } else if (op == "dump" && cmd.size() == 2) {
    cpr::certify::StateDump dump;
    cpr::Status s = c.DumpState(&dump);
    if (!s.ok()) return fail(s);
    s = cpr::certify::WriteStateDumpFile(cmd[1], dump);
    if (!s.ok()) return fail(s);
    uint64_t live = 0;
    for (const auto& t : dump.tables) live += t.rows.size();
    std::printf("dumped %zu tables (%llu live rows) to %s\n",
                dump.tables.size(), static_cast<unsigned long long>(live),
                cmd[1].c_str());
  } else if (op == "certify" && cmd.size() >= 3) {
    cpr::certify::StateDump baseline;
    cpr::Status s = cpr::certify::ReadStateDumpFile(cmd[1], &baseline);
    if (!s.ok()) return fail(s);
    std::vector<cpr::certify::History> histories;
    for (size_t i = 2; i < cmd.size(); ++i) {
      cpr::certify::History h;
      s = cpr::certify::ReadHistoryFile(cmd[i], &h);
      if (!s.ok()) return fail(s);
      histories.push_back(std::move(h));
    }
    cpr::certify::StateDump final_state;
    s = c.DumpState(&final_state);
    if (!s.ok()) return fail(s);
    const auto violations =
        cpr::certify::CheckHistories(baseline, final_state, histories);
    for (const auto& v : violations) {
      std::printf("VIOLATION %s guid=%llu serial=%llu table=%u row=%llu: %s\n",
                  cpr::certify::ViolationCodeName(v.code),
                  static_cast<unsigned long long>(v.guid),
                  static_cast<unsigned long long>(v.serial), v.table,
                  static_cast<unsigned long long>(v.row), v.detail.c_str());
    }
    if (!violations.empty()) {
      std::printf("%zu violations\n", violations.size());
      return 1;
    }
    std::printf("certified: %zu histories against the live state\n",
                histories.size());
  } else if (op == "info") {
    std::printf("guid=%llu recovered_serial=%llu durable_serial=%llu "
                "replay_backlog=%zu\n",
                static_cast<unsigned long long>(c.guid()),
                static_cast<unsigned long long>(c.recovered_serial()),
                static_cast<unsigned long long>(c.durable_serial()),
                c.replay_backlog());
  } else {
    std::printf("unknown command\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cpr::client::CprClient::Options opts;
  opts.port = 7777;
  cpr::certify::HistoryRecorder recorder;
  std::string history_path;
  std::vector<std::string> cmd;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      opts.host = next();
    } else if (arg == "--port") {
      opts.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--guid") {
      opts.guid = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--durable") {
      opts.ack_mode = cpr::net::AckMode::kDurable;
    } else if (arg.rfind("--record-history=", 0) == 0) {
      history_path = arg.substr(std::strlen("--record-history="));
      opts.recorder = &recorder;
    } else if (arg == "--record-history") {
      history_path = next();
      opts.recorder = &recorder;
    } else if (arg == "--help") {
      Usage(argv[0]);
      return 0;
    } else {
      cmd.push_back(arg);
    }
  }

  cpr::client::CprClient client(opts);
  const cpr::Status s = client.Connect();
  if (!s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }
  int rc = 0;
  if (cmd.empty()) {
    std::printf("connected: guid=%llu recovered_serial=%llu (\"help\": see "
                "--help)\n",
                static_cast<unsigned long long>(client.guid()),
                static_cast<unsigned long long>(client.recovered_serial()));
    std::string line;
    while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
      std::istringstream is(line);
      std::vector<std::string> tokens;
      std::string tok;
      while (is >> tok) tokens.push_back(tok);
      if (!tokens.empty() && (tokens[0] == "quit" || tokens[0] == "exit")) {
        break;
      }
      Exec(client, tokens);
    }
  } else {
    rc = Exec(client, cmd);
  }
  if (!history_path.empty()) {
    const cpr::Status s = recorder.WriteFile(history_path);
    if (!s.ok()) {
      std::fprintf(stderr, "history write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("history: %zu events to %s\n",
                recorder.history().events.size(), history_path.c_str());
  }
  return rc;
}
