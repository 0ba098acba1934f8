package core

// WithInterpreter returns cfg with every path worker switched from the
// compiled kernel to the reference interpreter (vvp.NewInterpreter): the
// oracle side of TestEngineEquivalenceEndToEnd.
func WithInterpreter(cfg Config) Config {
	cfg.interp = true
	return cfg
}
