// Controller analysis: the width and regularity of the control word the
// allocated datapath needs per control step — mux select bits, register
// load enables, FU operation selects. Allocation decisions change these
// (an effect later literature examines in depth); the harnesses report them
// alongside the interconnect metrics.
#pragma once

#include <string>
#include <vector>

#include "datapath/netlist.h"

namespace salsa {

struct ControllerStats {
  int mux_select_bits = 0;  ///< sum of ceil(log2(#sources)) over input pins
  int reg_enable_bits = 0;  ///< registers that load at least once
  int fu_select_bits = 0;   ///< ALUs executing more than one op kind
  int total_bits() const {
    return mux_select_bits + reg_enable_bits + fu_select_bits;
  }
  /// Distinct control words over the schedule (a measure of controller
  /// regularity; fewer distinct words mean a smaller decoder).
  int distinct_words = 0;
  /// Steps whose control word is all-idle: no FU starts an operation and no
  /// register loads. The datapath coasts (registers hold, pass-through
  /// routing may still be configured) — the controller's stall states. The
  /// compiled simulator lowers empty lists for these steps; the
  /// simulator edge-case tests pin that both engines coast identically.
  int idle_steps = 0;
};

/// Computes the control-word statistics of a netlist.
ControllerStats analyze_controller(const Netlist& nl);

/// Renders the per-step control word table (for reports and debugging).
std::string controller_table(const Netlist& nl);

}  // namespace salsa
