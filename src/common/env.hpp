// One front door for every DNC_* environment knob.
//
// Historically each subsystem called std::getenv and hand-rolled its own
// parsing; this header centralises the typed getters and carries the
// single knob-reference table (name + one-line summary) that docs and
// tools can render without chasing call sites. Getters re-read the
// environment on every call by design -- tests setenv() mid-process and
// expect the next solve to notice -- so subsystems that want
// parse-once-per-run semantics cache the result themselves at a lifecycle
// boundary (e.g. scheduler start) rather than per task.
#pragma once

#include <string>

namespace dnc::env {

/// Raw getenv: nullptr when unset. Prefer the typed getters below.
const char* raw(const char* name) noexcept;

/// True when the variable is set to a non-empty value.
bool is_set(const char* name) noexcept;

/// String value, or `dflt` when unset/empty.
std::string str(const char* name, const std::string& dflt = "");

/// Boolean knob: unset/empty returns `dflt`; "0"/"off"/"false"/"no" are
/// false, anything else is true (so DNC_X=1 and DNC_X=on both enable).
bool flag(const char* name, bool dflt = false) noexcept;

/// Integer knob; returns `dflt` when unset or unparsable.
long integer(const char* name, long dflt) noexcept;

/// Floating-point knob; returns `dflt` when unset or unparsable.
double number(const char* name, double dflt) noexcept;

/// One row of the knob-reference table.
struct Knob {
  const char* name;     ///< environment variable, e.g. "DNC_PREC"
  const char* values;   ///< accepted values, human-readable
  const char* summary;  ///< one-line description
};

/// Every DNC_* knob the process understands, for docs / diagnostics.
/// Terminated by a {nullptr, nullptr, nullptr} sentinel.
const Knob* knob_reference() noexcept;

}  // namespace dnc::env
