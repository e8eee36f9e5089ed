package core

import (
	"repro/internal/apps"
)

// Add inserts one fingerprint/label pair. A repeated pair increments
// the pair's observation count; a fingerprint gaining a second label
// becomes a collision entry.
func (d *Dictionary) Add(fp Fingerprint, label apps.Label) {
	d.AddN(fp, label, 1)
}

// entryFor resolves the public fingerprint form to its entry, or nil.
func (d *Dictionary) entryFor(fp Fingerprint) *entry {
	mid, ok := d.metricIDs[fp.Metric]
	if !ok {
		return nil
	}
	wid, ok := d.windowIDs[fp.Window]
	if !ok {
		return nil
	}
	return d.buckets[bucketKey{metric: mid, window: wid, node: int32(fp.Node)}][fp.Key]
}

// Count reports how many training executions produced the fingerprint
// under the label.
func (d *Dictionary) Count(fp Fingerprint, label apps.Label) int {
	e := d.entryFor(fp)
	if e == nil {
		return 0
	}
	lid, ok := d.labelIDs[label]
	if !ok {
		return 0
	}
	for i, l := range e.labels {
		if l == lid {
			return int(e.counts[i])
		}
	}
	return 0
}

// Compact removes keys whose total observation count is below min,
// pruning one-off noise fingerprints (e.g. a single interference-
// shifted run) while keeping the repeated, reliable keys. It returns
// the number of keys removed. Compact never removes the last key of a
// label, so no learned application vanishes from the dictionary.
func (d *Dictionary) Compact(min int) int {
	if min <= 1 {
		return 0
	}
	// Count keys per label so the guard below can hold.
	keysPerLabel := make([]int, len(d.labels))
	for _, b := range d.buckets {
		for _, e := range b {
			for _, lid := range e.labels {
				keysPerLabel[lid]++
			}
		}
	}
	removed := 0
	for _, b := range d.buckets {
		for key, e := range b {
			total := int32(0)
			for _, c := range e.counts {
				total += c
			}
			if int(total) >= min {
				continue
			}
			last := false
			for _, lid := range e.labels {
				if keysPerLabel[lid] <= 1 {
					last = true
					break
				}
			}
			if last {
				continue
			}
			for _, lid := range e.labels {
				keysPerLabel[lid]--
			}
			delete(b, key)
			d.size--
			removed++
		}
	}
	return removed
}

// Lookup returns the labels stored under the fingerprint, in learning
// order, or nil when the fingerprint is unknown. The slice is freshly
// allocated and owned by the caller.
func (d *Dictionary) Lookup(fp Fingerprint) []apps.Label {
	e := d.entryFor(fp)
	if e == nil {
		return nil
	}
	return d.materializeLabels(e)
}

// Merge adds every entry of other into d. Entries arrive in other's
// Entries() order (deterministic); label order within merged entries
// follows d first, then other's additions.
func (d *Dictionary) Merge(other *Dictionary) {
	for _, e := range other.Entries() {
		for i, l := range e.Labels {
			d.AddN(e.Key, l, e.Counts[i])
		}
	}
}
