package engine

// ExecMode names the TAG execution core. There is one core, so the type
// has one value; it survives only because the separate tempobench module
// passes ExecCompiled to cli.BuildMineResult. Delete both once that call
// site drops the argument.
type ExecMode int

// ExecCompiled is the only TAG execution core.
const ExecCompiled ExecMode = 0
