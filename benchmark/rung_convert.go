package main

// Rung: convert. Entry point pinned: (*Converter).RunOnce(), reached as
// Lake.RunConversion.
//
// Conversion is only ever a top rung: the pipeline workload runs it
// after every burst and those spans are its time. Below it sit the
// transform's row decoding (rowcodec), the stream reads (streamobj) and
// the table writes (tableobj).
const spanConvert = "convert.run"

func (c *climber) convertRung() {
	c.fromSpans("convert", "convert", spanConvert)
}
