package automata

// Hooks for the external test package, which builds NFAs with
// internal/enforce and the corpus (packages that import this one).
var (
	ClassesOfNFA          = classesOfNFA
	ClassesOfNFARefine    = classesOfNFARefine
	CheckImportantSubsets = checkImportantSubsets
)
