#include "core/stacks.h"

#include <stdexcept>

#include "baseline/chord_net/chord_net.h"
#include "core/scenario.h"
#include "baseline/flooding.h"
#include "baseline/kwalker.h"
#include "baseline/sqrt_replication.h"

namespace churnstore {

WorkloadOutcome ChurnstoreService::search_outcome(std::uint64_t sid) const {
  const SearchStatus* st = sys_.search_status(sid);
  WorkloadOutcome out;
  if (!st) return out;
  out.done = st->finished;
  out.located = st->succeeded_locate();
  out.fetched = st->succeeded_fetch();
  out.censored = st->initiator_churned && !st->succeeded_locate();
  out.located_round = st->located;
  out.fetched_round = st->fetched;
  return out;
}

namespace {

struct StackEntry {
  std::string summary;
  StackBuilder builder;
};

std::map<std::string, StackEntry>& registry() {
  // shardcheck:ok(R4: Meyers registry of stack builders — populated by static initializers, read-only once trials start)
  static std::map<std::string, StackEntry> stacks;
  return stacks;
}

BuiltSystem build_churnstore(const SystemConfig& config, const StackExtras&) {
  BuiltSystem built;
  built.system = std::make_unique<P2PSystem>(config);
  built.owned_service = std::make_unique<ChurnstoreService>(*built.system);
  built.service = built.owned_service.get();
  return built;
}

BuiltSystem build_chord(const SystemConfig& config, const StackExtras& extras) {
  // Message-accurate Chord on the Network layer: every lookup,
  // stabilization, and transfer is a charged Message, so hop and bit
  // columns are measured, not estimated.
  ChordNetProtocol::Options opts;
  opts.successors = static_cast<std::uint32_t>(
      extras_int(extras, "chord-replication", opts.successors));
  opts.stabilize_period = static_cast<std::uint32_t>(
      extras_int(extras, "chord-stabilize", opts.stabilize_period));
  opts.replicate_period = static_cast<std::uint32_t>(
      extras_int(extras, "chord-replicate", opts.replicate_period));
  opts.item_bits = config.protocol.item_bits;

  auto chord = std::make_unique<ChordNetProtocol>(opts);
  ChordNetProtocol* service = chord.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(chord));
  BuiltSystem built;
  built.system = std::make_unique<P2PSystem>(config, std::move(mods));
  built.service = service;
  return built;
}

BuiltSystem build_flooding(const SystemConfig& config,
                           const StackExtras& extras) {
  FloodingStore::Options opts;
  opts.refresh_period = static_cast<std::uint32_t>(
      extras_int(extras, "flood-refresh", 8));
  opts.item_bits = config.protocol.item_bits;

  auto flood = std::make_unique<FloodingStore>(opts);
  FloodingStore* service = flood.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(flood));

  BuiltSystem built;
  built.system = std::make_unique<P2PSystem>(config, std::move(mods));
  built.service = service;
  return built;
}

BuiltSystem build_kwalker(const SystemConfig& config,
                          const StackExtras& extras) {
  KWalkerSearch::Options opts;
  opts.walkers =
      static_cast<std::uint32_t>(extras_int(extras, "walkers", 16));
  opts.replication = static_cast<std::uint32_t>(
      extras_int(extras, "replication", opts.replication));
  opts.item_bits = config.protocol.item_bits;

  auto soup = std::make_unique<TokenSoup>(config.walk);
  auto kw = std::make_unique<KWalkerSearch>(*soup, opts);
  KWalkerSearch* service = kw.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(soup));
  mods.push_back(std::move(kw));

  BuiltSystem built;
  built.system = std::make_unique<P2PSystem>(config, std::move(mods));
  built.service = service;
  return built;
}

BuiltSystem build_sqrt(const SystemConfig& config, const StackExtras& extras) {
  SqrtReplication::Options opts;
  opts.replication_mult =
      extras_double(extras, "replication-mult", opts.replication_mult);
  opts.probes_per_round = static_cast<std::uint32_t>(
      extras_int(extras, "probes-per-round", opts.probes_per_round));
  opts.item_bits = config.protocol.item_bits;

  auto soup = std::make_unique<TokenSoup>(config.walk);
  auto repl = std::make_unique<SqrtReplication>(*soup, opts);
  SqrtReplication* service = repl.get();
  std::vector<std::unique_ptr<Protocol>> mods;
  mods.push_back(std::move(soup));
  mods.push_back(std::move(repl));

  BuiltSystem built;
  built.system = std::make_unique<P2PSystem>(config, std::move(mods));
  built.service = service;
  return built;
}

bool register_builtins() {
  register_stack("churnstore",
                 "paper stack: soup + committees + landmarks + store/search",
                 build_churnstore);
  register_stack("chord",
                 "structured DHT with message-accurate lookups and periodic "
                 "stabilization on the Network layer; knobs: "
                 "chord-replication, chord-stabilize, chord-replicate",
                 build_chord);
  register_stack("flooding",
                 "flood every node, retrieve locally; knob: flood-refresh",
                 build_flooding);
  register_stack("k-walker",
                 "unmaintained replicas + k walker agents; knobs: walkers, "
                 "replication",
                 build_kwalker);
  register_stack("sqrt-replication",
                 "birthday-paradox placement, probe own samples; knobs: "
                 "replication-mult, probes-per-round",
                 build_sqrt);
  return true;
}

const bool builtins_registered = register_builtins();

}  // namespace

bool register_stack(const std::string& name, const std::string& summary,
                    StackBuilder builder) {
  return registry()
      .emplace(name, StackEntry{summary, std::move(builder)})
      .second;
}

BuiltSystem build_stack(std::string_view name, const SystemConfig& config,
                        const StackExtras& extras) {
  (void)builtins_registered;
  const auto it = registry().find(std::string(name));
  if (it == registry().end()) {
    throw std::invalid_argument("unknown protocol stack: " +
                                std::string(name));
  }
  return it->second.builder(config, extras);
}

std::vector<std::pair<std::string, std::string>> stack_catalog() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, entry] : registry()) {
    out.emplace_back(name, entry.summary);
  }
  return out;
}

}  // namespace churnstore
