package planner

// The reference placer's comparison and the swap search's check, for the
// external test package, whose Fig. 8 configurations come from
// internal/eval (which imports the planner).
var (
	RandomSwitches              = randomSwitches
	PlaceMatchesPlacer          = placeMatchesPlacer
	SwapSearchIsPairwiseOptimal = swapSearchIsPairwiseOptimal
	SwapPlacements              = swapPlacements
)

// SwapCap is the swap search's placement budget.
const SwapCap = swapCap
