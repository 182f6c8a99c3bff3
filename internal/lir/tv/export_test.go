package tv

// NewFullChecker returns a checker that clones, verifies and validates every
// pass application in full, as if each one changed the IR: the oracle the
// checker's unchanged-application shortcuts are tested against.
func NewFullChecker(opts Options) *Checker { return &Checker{Opts: opts, full: true} }
