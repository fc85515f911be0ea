#include "core/stacks.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "baseline/chord_net/chord_net.h"
#include "baseline/flooding.h"
#include "baseline/kwalker.h"
#include "baseline/sqrt_replication.h"

namespace churnstore {

namespace {

// Each builder runs its stack at fixed constants: the baselines' Options
// defaults, except flooding's refresh period of 8 rounds.

BuiltSystem build_churnstore(const SystemConfig& config) {
  BuiltSystem built;
  built.system = std::make_unique<P2PSystem>(config);
  built.service = &built.system->searches();
  return built;
}

BuiltSystem build_chord(const SystemConfig& config) {
  // Message-accurate Chord on the Network layer: every lookup,
  // stabilization, and transfer is a charged Message, so hop and bit
  // columns are measured, not estimated.
  ChordNetProtocol::Options opts;
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

BuiltSystem build_flooding(const SystemConfig& config) {
  FloodingStore::Options opts;
  opts.refresh_period = 8;
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

BuiltSystem build_kwalker(const SystemConfig& config) {
  KWalkerSearch::Options opts;
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

BuiltSystem build_sqrt(const SystemConfig& config) {
  SqrtReplication::Options opts;
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

struct StackDef {
  std::string_view name;
  std::string_view summary;
  BuiltSystem (*build)(const SystemConfig&);
};

/// Every stack, sorted by name (the catalog order).
constexpr StackDef kStacks[] = {
    {"chord",
     "structured DHT with message-accurate lookups and periodic "
     "stabilization on the Network layer",
     build_chord},
    {"churnstore", "paper stack: soup + committees + landmarks + store/search",
     build_churnstore},
    {"flooding", "flood every node, retrieve locally", build_flooding},
    {"k-walker", "unmaintained replicas + k walker agents", build_kwalker},
    {"sqrt-replication", "birthday-paradox placement, probe own samples",
     build_sqrt},
};
static_assert(std::is_sorted(std::begin(kStacks), std::end(kStacks),
                             [](const StackDef& a, const StackDef& b) {
                               return a.name < b.name;
                             }));

}  // namespace

BuiltSystem build_stack(std::string_view name, const SystemConfig& config,
                        const StackExtras& /*extras: unread*/) {
  for (const StackDef& def : kStacks) {
    if (def.name == name) return def.build(config);
  }
  throw std::invalid_argument("unknown protocol stack: " + std::string(name));
}

std::vector<std::pair<std::string, std::string>> stack_catalog() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const StackDef& def : kStacks) {
    out.emplace_back(def.name, def.summary);
  }
  return out;
}

}  // namespace churnstore
