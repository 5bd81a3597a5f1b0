// Package twosources imports two sentinel sources; its one table
// decides every sentinel of the first and forgets the second's.
package twosources

import (
	"errors"
	"net/http"

	fed "repro/internal/lint/testdata/src/sentinelhttp/fed/sentinels"
	"repro/internal/lint/testdata/src/sentinelhttp/sentinels"
)

// statusOf is the package's single table.
//
//hmn:sentineltable
func statusOf(err error) int { // want `sentinel sentinels\.ErrNoSuchShard has no HTTP status`
	switch {
	case errors.Is(err, sentinels.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, sentinels.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, sentinels.ErrTooBig):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

// handle compares the second source's sentinel inline, as a handler
// written before the layer counted as a source would have.
func handle(err error) int {
	if errors.Is(err, fed.ErrNoSuchShard) { // want `sentinel ErrNoSuchShard compared outside the //hmn:sentineltable function statusOf`
		return http.StatusNotFound
	}
	return statusOf(err)
}
