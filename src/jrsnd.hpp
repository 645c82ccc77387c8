// Umbrella header: the full public API of the jrsnd library.
//
// Layering (each layer depends only on those above it):
//   common, obs -> crypto, ecc, dsss
//   predist     -> sim -> adversary
//   core        -> baselines
//
// Typical consumers include just what they need; this header is a
// convenience for examples and exploratory use.
#pragma once

// common
#include "common/bit_vector.hpp"
#include "common/hex.hpp"
#include "common/logging.hpp"
#include "common/math_util.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

// obs
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/prof/perf_counters.hpp"
#include "obs/prof/sampling_profiler.hpp"
#include "obs/sinks.hpp"
#include "obs/span.hpp"
#include "obs/trace_analysis.hpp"

// crypto
#include "crypto/hmac.hpp"
#include "crypto/ibc.hpp"
#include "crypto/prf.hpp"
#include "crypto/session_code.hpp"
#include "crypto/sha256.hpp"
#include "crypto/stream.hpp"

// ecc
#include "ecc/ecc_codec.hpp"
#include "ecc/gf256.hpp"
#include "ecc/reed_solomon.hpp"

// dsss
#include "dsss/chip_channel.hpp"
#include "dsss/correlator.hpp"
#include "dsss/sliding_window.hpp"
#include "dsss/spread_code.hpp"
#include "dsss/spreader.hpp"
#include "dsss/timing.hpp"

// predist
#include "predist/authority.hpp"
#include "predist/code_assignment.hpp"
#include "predist/global_revocation.hpp"
#include "predist/provisioning.hpp"
#include "predist/revocation.hpp"

// sim
#include "sim/field.hpp"
#include "sim/mobility.hpp"
#include "sim/topology.hpp"

// adversary
#include "adversary/compromise.hpp"
#include "adversary/dos_attacker.hpp"
#include "adversary/jammer.hpp"

// fault
#include "fault/fault_plan.hpp"
#include "fault/faulty_phy.hpp"

// core
#include "core/abstract_phy.hpp"
#include "core/analysis.hpp"
#include "core/chip_phy.hpp"
#include "core/discovery_sim.hpp"
#include "core/dndp.hpp"
#include "core/handshake.hpp"
#include "core/jrsnd_node.hpp"
#include "core/latency.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "core/mndp.hpp"
#include "core/params.hpp"
#include "core/periodic_discovery.hpp"
#include "core/phy_model.hpp"
#include "core/schedule_sim.hpp"
#include "core/secure_channel.hpp"
#include "core/tracing_phy.hpp"

// baselines
#include "baselines/global_code.hpp"
#include "baselines/pairwise_code.hpp"
#include "baselines/public_code_set.hpp"
#include "baselines/ufh.hpp"
