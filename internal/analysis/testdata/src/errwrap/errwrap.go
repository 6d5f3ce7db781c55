// Package errwrap is the analysistest fixture for the errwrap analyzer:
// formatted errors must be wrapped with %w and matched with
// errors.Is/As, or sentinel tests silently stop working one wrap deep.
package errwrap

import (
	"errors"
	"fmt"
	"io"
	"os"
)

var errStall = errors.New("read stalled")

// %v flattens the chain: errors.Is(result, io.EOF) fails downstream.
func badVerbWrap(err error) error {
	return fmt.Errorf("read block: %v", err) // want `formats an error with %v: use %w`
}

func badStringWrap(off int64, err error) error {
	return fmt.Errorf("offset %d: %s", off, err) // want `formats an error with %s: use %w`
}

// %w keeps the chain; %T and %d on non-errors are untouched.
func goodWrap(off int64, err error) error {
	return fmt.Errorf("offset %d (%T): %w", off, err, err)
}

// Direct equality misses wrapped sentinels.
func badCompare(err error) bool {
	return err == io.EOF // want `compared with ==: use errors.Is`
}

func badNotEqual(err error) bool {
	if err != errStall { // want `compared with !=: use errors.Is`
		return true
	}
	return false
}

// nil tests and errors.Is are the sanctioned forms.
func goodCompare(err error) bool {
	return err != nil && errors.Is(err, io.EOF)
}

// A type switch on an error value misses wrapped concrete types.
func badTypeSwitch(err error) string {
	switch err.(type) { // want `type assertion on an error value: use errors.As`
	case *os.PathError:
		return "path"
	default:
		return "other"
	}
}

func goodTypeMatch(err error) bool {
	var pe *os.PathError
	return errors.As(err, &pe)
}
