// Package sentinels is a second sentinel source, standing in for
// internal/shard beside the first one's internal/core: a package that
// serves both layers owes a status to the sentinels of each.
package sentinels

import "errors"

// ErrNoSuchShard marks a shard index out of range.
var ErrNoSuchShard = errors.New("fed: no such shard")
