// Copyright 2026 The densest Authors.
// The densest_cli command layer. Each command takes parsed Args and writes
// human-readable output to a stream, so the whole surface is testable
// without spawning processes.

#ifndef DENSEST_CLI_COMMANDS_H_
#define DENSEST_CLI_COMMANDS_H_

#include <ostream>
#include <string>

#include "cli/args.h"
#include "common/status.h"

namespace densest {

/// Dispatches `command` with `args`; returns the command's status. The
/// commands and their flags are listed in CliUsage().
Status RunCliCommand(const std::string& command, const Args& args,
                     std::ostream& out);

/// Usage text for the tool.
std::string CliUsage();

}  // namespace densest

#endif  // DENSEST_CLI_COMMANDS_H_
